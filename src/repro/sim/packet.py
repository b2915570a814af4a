"""CCI-P-style packets.

Intel HARP's Core Cache Interface (CCI-P) is a request/response protocol:
an accelerator sends a memory request packet and later receives a response
packet; MMIO reads/writes arrive from the host as requests the accelerator
must answer.  This module defines the in-simulator representation of those
packets.

Two fields matter for the OPTIMUS hardware monitor:

* ``address`` — for DMA requests, the address *as seen at this point of the
  path*: a guest virtual address (GVA) when leaving the accelerator, an IO
  virtual address (IOVA) after the auditor applies its page-table-slicing
  offset, and a host physical address (HPA) after the IOMMU.
* ``accel_id`` — the tag an auditor stamps onto outgoing DMA requests so the
  response can be routed back (and so that foreign responses are discarded).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: Size of one CCI-P cache line in bytes.  All DMAs are multiples of this.
CACHE_LINE_BYTES = 64


class PacketKind(enum.Enum):
    """The CCI-P transaction types the simulation distinguishes."""

    MMIO_READ = "mmio_read"
    MMIO_WRITE = "mmio_write"
    MMIO_RESPONSE = "mmio_response"
    DMA_READ_REQ = "dma_read_req"
    DMA_READ_RESP = "dma_read_resp"
    DMA_WRITE_REQ = "dma_write_req"
    DMA_WRITE_RESP = "dma_write_resp"


class AddressSpace(enum.Enum):
    """Which address space a packet's ``address`` currently belongs to."""

    GVA = "gva"  # guest virtual, as issued by a virtual accelerator
    IOVA = "iova"  # IO virtual, after page table slicing
    HPA = "hpa"  # host physical, after the IOMMU


#: Wire overhead charged per request beyond the payload (header/CRC model).
REQUEST_HEADER_BYTES = 16
#: Size of a write acknowledgement / read request on the response channel.
SMALL_PACKET_BYTES = 16


@dataclass(slots=True)
class Packet:
    """One CCI-P transaction unit flowing through the simulated platform."""

    kind: PacketKind
    address: int = 0
    size: int = CACHE_LINE_BYTES
    space: AddressSpace = AddressSpace.GVA
    accel_id: Optional[int] = None
    data: Optional[bytes] = None
    mdata: int = 0  # request tag, preserved in the response (CCI-P mdata)
    issued_at_ps: int = 0
    #: A coalesced burst: N contiguous cache lines travelling as one packet
    #: that the DMA engine either commits on the simulator fast path (with
    #: per-line timing expanded analytically) or splits back into the
    #: per-line packets of the reference path.  Never observed downstream
    #: of the DMA engine.
    coalesced: bool = False

    def make_response(self, data: Optional[bytes] = None) -> "Packet":
        """Build the response packet for this request, preserving tags.

        Hand-rolled construction (no generated ``__init__``): one response
        is built per DMA transaction, which makes this the simulator's
        hottest allocation site.
        """
        kind = self.kind
        if kind is PacketKind.DMA_READ_REQ:
            response_kind = PacketKind.DMA_READ_RESP
        elif kind is PacketKind.DMA_WRITE_REQ:
            response_kind = PacketKind.DMA_WRITE_RESP
        elif kind is PacketKind.MMIO_READ or kind is PacketKind.MMIO_WRITE:
            response_kind = PacketKind.MMIO_RESPONSE
        else:
            raise ValueError(f"cannot respond to a {self.kind} packet")
        response = object.__new__(Packet)
        response.kind = response_kind
        response.address = self.address
        response.size = self.size
        response.space = self.space
        response.accel_id = self.accel_id
        response.data = data
        response.mdata = self.mdata
        response.issued_at_ps = self.issued_at_ps
        response.coalesced = False
        return response


def make_dma_request(
    kind: PacketKind,
    address: int,
    size: int,
    accel_id: Optional[int],
    data: Optional[bytes] = None,
    coalesced: bool = False,
) -> Packet:
    """Fast constructor for the DMA engine's per-request packets (GVA space).

    Equivalent to calling ``Packet(...)`` with the same fields; hand-rolled
    because one request packet is built per DMA transaction.
    """
    packet = object.__new__(Packet)
    packet.kind = kind
    packet.address = address
    packet.size = size
    packet.space = AddressSpace.GVA
    packet.accel_id = accel_id
    packet.data = data
    packet.mdata = 0
    packet.issued_at_ps = 0
    packet.coalesced = coalesced
    return packet


def dma_read(address: int, size: int = CACHE_LINE_BYTES, *, space: AddressSpace = AddressSpace.GVA) -> Packet:
    """Convenience constructor for a DMA read request."""
    return Packet(kind=PacketKind.DMA_READ_REQ, address=address, size=size, space=space)


def dma_write(
    address: int,
    data: Optional[bytes] = None,
    size: Optional[int] = None,
    *,
    space: AddressSpace = AddressSpace.GVA,
) -> Packet:
    """Convenience constructor for a DMA write request."""
    if size is None:
        size = len(data) if data is not None else CACHE_LINE_BYTES
    return Packet(kind=PacketKind.DMA_WRITE_REQ, address=address, size=size, data=data, space=space)
