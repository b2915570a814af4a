"""Assembly of the CPU-side memory path: links + IOMMU + DRAM.

:class:`MemorySystem` is what the FPGA shell talks to.  It accepts DMA
request packets whose addresses are **IOVAs** (pass-through guests and
OPTIMUS auditors both hand the shell IOVA-space packets), runs the timed
IOMMU translation, moves the packet across the selected link, performs the
DRAM access (functionally, so data really moves), and returns the response
packet across the link.

A translation fault drops the DMA: the response callback receives ``None``
and the fault is visible in ``iommu.faults`` — this is the observable
behaviour isolation tests assert on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.interconnect.channel_selector import ChannelSelector, VirtualChannel
from repro.interconnect.link import Link
from repro.mem.dram import Dram
from repro.mem.iommu import Iommu
from repro.sim.engine import Engine
from repro.sim.packet import (
    REQUEST_HEADER_BYTES,
    SMALL_PACKET_BYTES,
    AddressSpace,
    Packet,
    PacketKind,
)
from repro.sim.stats import BandwidthMeter

#: ``on_response(response_or_None, *rest)``.
ResponseCallback = Callable[..., None]


class MemorySystem:
    """The CPU side of CCI-P: translation, links, DRAM."""

    def __init__(
        self,
        engine: Engine,
        iommu: Iommu,
        dram: Dram,
        selector: ChannelSelector,
    ) -> None:
        self.engine = engine
        self.iommu = iommu
        self.dram = dram
        self.selector = selector
        self.read_meter = BandwidthMeter(engine, "mem.read")
        self.write_meter = BandwidthMeter(engine, "mem.write")
        self.dropped_dmas = 0
        # Page walks fetch IOPT data from DRAM over a link the shell picks.
        self.iommu.walk_transfer = self._walk_transfer

    # -- DMA data plane --------------------------------------------------------

    def dma(
        self,
        packet: Packet,
        channel: VirtualChannel,
        on_response: ResponseCallback,
        *rest: Any,
    ) -> None:
        """Carry one DMA request to memory and its response back.

        The response (``None`` for a dropped DMA) arrives as
        ``on_response(response, *rest)``.  Every hop below is one event
        whose handler is a bound method; what the next hop needs travels
        as the event's arguments.
        """
        assert packet.space is AddressSpace.IOVA, "memory system expects IOVAs"
        self.iommu.translate_async(
            packet.address,
            write=packet.kind is PacketKind.DMA_WRITE_REQ,
            master=packet.accel_id,
            on_done=self._after_translate,
            args=(packet, channel, on_response, *rest),
        )

    def _after_translate(
        self,
        hpa: Optional[int],
        packet: Packet,
        channel: VirtualChannel,
        on_response: ResponseCallback,
        *rest: Any,
    ) -> None:
        if hpa is None:
            self.dropped_dmas += 1
            on_response(None, *rest)
            return
        link = self.selector.select(channel)
        # Wire sizes are inlined (see Packet.wire_bytes_*): requests and
        # write acks are small packets, payload carriers add a header.
        if packet.kind is PacketKind.DMA_WRITE_REQ:
            link.send_to_memory(
                REQUEST_HEADER_BYTES + packet.size,
                self._write_at_memory, packet, hpa, link, on_response, *rest,
            )
        else:
            link.send_to_memory(
                SMALL_PACKET_BYTES,
                self.dram.read_async,
                hpa, packet.size, self._read_with_data, packet, link, on_response, *rest,
            )

    def _read_with_data(
        self, data: bytes, packet: Packet, link: Link, on_response: ResponseCallback, *rest: Any
    ) -> None:
        self.read_meter.record(packet.size)
        response = packet.make_response(data=data)
        link.send_from_memory(
            REQUEST_HEADER_BYTES + response.size, on_response, response, *rest
        )

    def _write_at_memory(
        self, packet: Packet, hpa: int, link: Link, on_response: ResponseCallback, *rest: Any
    ) -> None:
        self.write_meter.record(packet.size)
        self.dram.write_async(
            hpa, packet.data, packet.size,
            self._write_done, packet, link, on_response, *rest,
        )

    def _write_done(
        self, packet: Packet, link: Link, on_response: ResponseCallback, *rest: Any
    ) -> None:
        link.send_from_memory(
            SMALL_PACKET_BYTES, on_response, packet.make_response(), *rest
        )

    # -- IOMMU page-walk transport ----------------------------------------------

    def _walk_transfer(self, wire_bytes: int, on_done: Callable[[], None]) -> None:
        link = self.selector.select(VirtualChannel.VA)
        link.round_trip(SMALL_PACKET_BYTES, wire_bytes + SMALL_PACKET_BYTES, on_done)

    # -- functional access (CPU-side, zero simulated time) -----------------------

    def cpu_read(self, hpa: int, size: int) -> bytes:
        return self.dram.read_now(hpa, size)

    def cpu_write(self, hpa: int, data: bytes) -> None:
        self.dram.write_now(hpa, data)

    def reset_meters(self) -> None:
        self.read_meter.reset()
        self.write_meter.reset()
        for link in self.selector.all_links:
            link.reset_meters()
