"""Auditors: the per-accelerator gatekeepers of the hardware monitor (§4.1).

One auditor fronts each physical accelerator.  It owns three checks, all
performed with single-cycle circuitry:

* **Outbound DMA** — the request's GVA must fall inside the accelerator's
  permitted window ``[g, g + p)``; the auditor adds the offset-table value
  ``i - g`` to relocate the request into the accelerator's IOVA slice and
  tags it with the accelerator ID.  Out-of-window requests are *discarded*
  (and, for reads, completed with no data) — an accelerator can never name
  another guest's memory.

* **Inbound MMIO** — the packet's offset must fall inside the
  accelerator's 4 KB MMIO page; otherwise it is discarded.

* **Inbound DMA responses** — the response's accelerator-ID tag must match;
  foreign responses are discarded.  This is the "lazy packet routing" of
  §4.1: the multiplexer tree blindly propagates packets and the auditor
  decides at the edge.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.fpga.afu import AfuSocket
from repro.interconnect.channel_selector import VirtualChannel
from repro.sim.engine import Engine
from repro.sim.packet import AddressSpace, Packet
from repro.sim.stats import Counters

#: Signature for forwarding a request up the multiplexer tree:
#: ``ingress(packet, channel, on_response, *rest)``; the response comes back
#: as ``on_response(response, *rest)``.
TreeIngress = Callable[..., None]


class Auditor:
    """The isolation boundary for one physical accelerator."""

    def __init__(
        self,
        engine: Engine,
        accel_id: int,
        *,
        latency_ps: int,
        mmio_page_bytes: int = 4096,
    ) -> None:
        self.engine = engine
        self.accel_id = accel_id
        self.latency_ps = latency_ps
        self.mmio_page_bytes = mmio_page_bytes
        # Offset-table state, written by the VCU on (re)schedule.
        self.offset: int = 0
        self.window_base: int = 0  # g
        self.window_size: int = 0  # p
        self.enabled: bool = False
        self.tree_ingress: Optional[TreeIngress] = None
        self.socket: Optional[AfuSocket] = None
        self.counters = Counters()

    # -- VCU-facing configuration ------------------------------------------------

    def configure_window(self, gva_base: int, window_size: int, iova_base: int) -> None:
        """Install the page-table-slicing mapping for the scheduled guest."""
        self.window_base = gva_base
        self.window_size = window_size
        self.offset = iova_base - gva_base
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- outbound: accelerator -> memory ---------------------------------------------

    def dma_sink(
        self,
        packet: Packet,
        channel: VirtualChannel,
        on_response: Callable[[Optional[Packet]], None],
    ) -> None:
        """Entry point wired to the accelerator socket's DMA engine."""
        if not self.enabled:
            self.counters.bump("dma_dropped_disabled")
            self.engine.call_after(self.latency_ps, on_response, None)
            return
        gva = packet.address
        if not (
            self.window_base <= gva
            and gva + packet.size <= self.window_base + self.window_size
        ):
            self.counters.bump("dma_dropped_window")
            self.engine.call_after(self.latency_ps, on_response, None)
            return
        # Single-cycle GVA -> IOVA relocation + accelerator-ID tagging.
        packet.address = gva + self.offset
        packet.space = AddressSpace.IOVA
        packet.accel_id = self.accel_id
        self.counters.bump("dma_forwarded")
        assert self.tree_ingress is not None, "auditor not wired to mux tree"
        # The response comes back as deliver_response(response, on_response):
        # the continuation and its argument ride the request through the
        # tree and the memory system instead of a closure.
        self.engine.call_after(
            self.latency_ps,
            self.tree_ingress,
            packet,
            channel,
            self.deliver_response,
            on_response,
        )

    # -- inbound: memory -> accelerator ---------------------------------------------

    def deliver_response(
        self,
        response: Optional[Packet],
        on_response: Callable[[Optional[Packet]], None],
    ) -> None:
        """Filter a DMA response by accelerator-ID tag and undo the offset."""
        if response is None:
            # Dropped at the IOMMU (fault) — nothing to deliver.
            self.counters.bump("dma_faulted")
            on_response(None)
            return
        if response.accel_id != self.accel_id:
            self.counters.bump("response_discarded_foreign")
            on_response(None)
            return
        response.address -= self.offset
        response.space = AddressSpace.GVA
        self.counters.bump("response_delivered")
        self.engine.call_after(self.latency_ps, on_response, response)

    # -- inbound: MMIO ------------------------------------------------------------------

    def mmio_write(self, offset: int, value: int) -> bool:
        """Forward an MMIO write if it targets this accelerator's page."""
        if not self._mmio_in_range(offset):
            self.counters.bump("mmio_discarded")
            return False
        assert self.socket is not None
        self.socket.mmio_write(offset, value)
        self.counters.bump("mmio_forwarded")
        return True

    def mmio_read(self, offset: int) -> Optional[int]:
        if not self._mmio_in_range(offset):
            self.counters.bump("mmio_discarded")
            return None
        assert self.socket is not None
        self.counters.bump("mmio_forwarded")
        return self.socket.mmio_read(offset)

    def _mmio_in_range(self, offset: int) -> bool:
        return 0 <= offset < self.mmio_page_bytes
