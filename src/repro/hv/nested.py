"""Nested virtualization by sub-slicing (§4.1).

The paper positions page table slicing as complementary to SR-IOV: "a
cloud provider could use SR-IOV to provide a 'vFPGA' to a VM acting as a
nested hypervisor.  The nested hypervisor could then use page table
slicing to share this vFPGA among its own guests."

This module demonstrates the address arithmetic of that nesting on top of
the existing stack.  An L1 tenant that owns one OPTIMUS virtual
accelerator (its "vFPGA") partitions its DMA window into *sub-slices* and
hands each to an L2 guest.  The translation chain composes exactly as the
paper sketches:

    L2 GVA --(+ sub-slice offset, L1's slicing)--> L1 GVA
           --(+ offset table, L0's slicing)-----> IOVA
           --(IO page table)--------------------> HPA

The L1 "auditor" is paravirtual: without a second hardware auditor per
sub-guest, L1 rebases and bounds-checks every register value an L2 guest
programs (the same software-only isolation the paper cites from gVirt /
Virtual WiFi as page table slicing's ancestors).  Data isolation between
L2 guests holds for well-formed jobs; the demonstration's point is the
composability of the slicing arithmetic, not hardware-grade containment.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import GuestError
from repro.guest.api import GuestAccelerator
from repro.mem.address import align_up
from repro.mem.allocator import RegionAllocator
from repro.sim.engine import Future


class SubGuest:
    """An L2 guest's view of its sub-slice of the L1 vFPGA window."""

    def __init__(self, parent: "NestedHypervisor", index: int, base: int, size: int) -> None:
        self._parent = parent
        self.index = index
        self.base = base  # L1 GVA where this sub-slice starts
        self.size = size
        self._alloc = RegionAllocator(0, size, granule=64)  # L2-local addresses

    # -- address arithmetic (the nested slicing) --------------------------------

    def l2_to_l1(self, l2_address: int, length: int = 0) -> int:
        """The L1 'auditor': rebase an L2 GVA, enforcing the sub-window."""
        if l2_address < 0 or l2_address >= self.size or l2_address + length > self.size:
            raise GuestError(
                f"sub-guest {self.index}: address {l2_address:#x} outside its sub-slice"
            )
        return self.base + l2_address

    # -- guest-facing surface --------------------------------------------------------

    def alloc_buffer(self, size: int) -> int:
        page = self._parent.page_size
        l2_address = self._alloc.alloc(align_up(size, page), alignment=page)
        # Registration flows through L1's handle, i.e. through L0's real
        # shadow-paging hypercalls for the rebased L1 addresses.
        self._parent.register_region(self.l2_to_l1(l2_address, size), size)
        return l2_address

    def write_buffer(self, l2_address: int, data: bytes) -> None:
        self._parent.handle.write_buffer(self.l2_to_l1(l2_address, len(data)), data)

    def read_buffer(self, l2_address: int, size: int) -> bytes:
        return self._parent.handle.read_buffer(self.l2_to_l1(l2_address, size), size)

    def mmio_write(self, offset: int, value: int, *, is_address: bool = False) -> Future:
        """Program the accelerator; address-carrying registers are rebased."""
        if is_address:
            value = self.l2_to_l1(value)
        return self._parent.handle.mmio_write(offset, value)


class NestedHypervisor:
    """An L1 hypervisor sub-slicing one OPTIMUS virtual accelerator."""

    def __init__(self, handle: GuestAccelerator, *, sub_slice_bytes: int) -> None:
        self.handle = handle
        self.page_size = handle.vm.page_size
        self.sub_slice_bytes = align_up(sub_slice_bytes, self.page_size)
        self.sub_guests: List[SubGuest] = []
        self._registered: Dict[int, int] = {}
        # Carve sub-slices from the parent window via the L1 allocator.
        self._carver = handle.buffer_allocator()

    def create_sub_guest(self) -> SubGuest:
        base = self._carver.alloc(self.sub_slice_bytes, alignment=self.page_size)
        guest = SubGuest(self, len(self.sub_guests), base, self.sub_slice_bytes)
        self.sub_guests.append(guest)
        return guest

    def register_region(self, l1_address: int, size: int) -> None:
        """Make an L1 region FPGA-accessible through L0's hypercalls."""
        self.handle.driver.make_region_accessible(l1_address, size)
        self._registered[l1_address] = size

    # -- introspection for tests -------------------------------------------------

    def translation_chain(self, guest: SubGuest, l2_address: int) -> Dict[str, int]:
        """Every stage of the nested translation for one address."""
        l1_gva = guest.l2_to_l1(l2_address)
        vaccel = self.handle.vaccel
        iova = vaccel.slice.iova_base + (l1_gva - (vaccel.window_base_gva or 0))
        hypervisor = self.handle.hypervisor
        hpa = hypervisor.platform.iommu.translate_sync(iova)
        return {"l2_gva": l2_address, "l1_gva": l1_gva, "iova": iova, "hpa": hpa}
