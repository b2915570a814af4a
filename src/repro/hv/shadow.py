"""Shadow paging: keeping the IO page table consistent with guest memory.

The IOMMU cannot walk nested (guest, then host) page tables, so OPTIMUS
maintains a *shadow* of each guest's mappings directly in the single IO
page table (§4.1, §5): the composed translation IOVA -> HPA, where
IOVA = GVA + slicing offset.

The prototype's mechanism is a hypercall-style register pair in BAR2: the
guest driver notifies the hypervisor of a (GVA, GPA) pair for each page it
makes FPGA-accessible.  The hypervisor then

1. validates the pair against the guest's own page table (a lying guest
   is caught here),
2. checks page permissions,
3. pins the backing host frame (pass-through-style pinning, but — unlike
   SR-IOV — only for pages the guest actually registered, §5 "Huge Pages"),
4. computes the IOVA from the vaccel's slice and window base, and
5. installs IOVA -> HPA in the IO page table.

At window-registration time every IOPT entry of the window is pointed at
a per-vaccel dummy page, so a stray (but in-window) DMA can never fault
the IOMMU or touch another guest's memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GuestError, TranslationFault
from repro.hv.mdev import VirtualAccelerator
from repro.mem.iommu import Iommu

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor

#: Windows larger than this many pages skip eager dummy backing (they would
#: bloat the IOPT); unregistered pages there simply fault-and-drop instead.
DUMMY_BACKING_PAGE_LIMIT = 65536


class ShadowPager:
    """Maintains the sliced IO page table for every virtual accelerator."""

    def __init__(self, hypervisor: "OptimusHypervisor", iommu: Iommu) -> None:
        self.hypervisor = hypervisor
        self.iommu = iommu
        #: The IO page table itself: windows are installed and torn down
        #: as ranges, straight on the table.
        self.iopt = iommu.page_table
        self.page_size = iommu.page_size
        self.pages_mapped = 0
        self.pages_pinned = 0
        # Tracing: page-table slicing is hypervisor control plane, identical
        # between simulator modes.
        self._trace = iommu.engine.trace
        if self._trace is not None:
            self._trace_tid = self._trace.thread("hv.slicing")

    # -- window lifecycle -----------------------------------------------------------

    def install_window(self, vaccel: VirtualAccelerator, size: int) -> None:
        """Register a ``size``-byte DMA window and back it with the dummy page.

        A rejected window changes nothing: the guest's window stays what it
        was, so no later hypercall can map outside the slice.
        """
        if vaccel.window_base_gva is None or size <= 0:
            raise GuestError(f"{vaccel.name}: DMA window not registered")
        if vaccel.window_base_gva % self.page_size:
            raise GuestError(f"{vaccel.name}: window base must be page-aligned")
        slice_ = vaccel.slice
        if size > slice_.size:
            raise GuestError(
                f"{vaccel.name}: window exceeds the {slice_.size:#x}-byte slice"
            )
        vaccel.window_size = size
        n_pages = (size + self.page_size - 1) // self.page_size
        extent = n_pages * self.page_size
        if extent > vaccel.window_extent:
            vaccel.window_extent = extent
        if self._trace is not None:
            self._trace.instant("hv.slice.window", self.iommu.engine.now,
                                tid=self._trace_tid, cat="hv",
                                args={"vaccel": vaccel.name,
                                      "iova_base": slice_.iova_base,
                                      "pages": n_pages})
        if n_pages > DUMMY_BACKING_PAGE_LIMIT:
            return  # huge reservation: leave unregistered pages unmapped
        self.iopt.fill_range(slice_.iova_base, size, self.hypervisor.dummy_frame())

    def teardown_window(self, vaccel: VirtualAccelerator) -> int:
        """Remove every IOPT entry of a departing virtual accelerator: all
        of them lie inside the largest window it ever installed."""
        return self.iopt.unmap_range(vaccel.slice.iova_base, vaccel.window_extent)

    # -- the hypercall (§5 "Shadow Paging") ---------------------------------------------

    def map_page(self, vaccel: VirtualAccelerator, gva: int, gpa: int) -> int:
        """Handle the guest's (GVA, GPA) notification; returns the IOVA."""
        if gva % self.page_size or gpa % self.page_size:
            raise GuestError("hypercall addresses must be page-aligned")
        window_base = vaccel.window_base_gva
        if window_base is None:
            raise GuestError(f"{vaccel.name}: register a DMA window first")
        if not window_base <= gva < window_base + vaccel.window_size:
            raise GuestError(
                f"{vaccel.name}: GVA {gva:#x} outside the registered DMA window"
            )

        # Validate the guest's claim against its own page table, check
        # permissions, and pin the backing host frame.
        vm = vaccel.vm
        try:
            claimed_gpa = vm.mmu.gva_to_gpa(gva)
        except TranslationFault as exc:
            raise GuestError(f"{vaccel.name}: GVA {gva:#x} not mapped in guest") from exc
        if claimed_gpa != gpa:
            raise GuestError(
                f"{vaccel.name}: guest lied about GPA for {gva:#x} "
                f"(claimed {gpa:#x}, page table says {claimed_gpa:#x})"
            )
        _gpa, hpa = vm.mmu.resolve_for_pinning(gva)
        self.pages_pinned += 1

        iova = vaccel.slice.iova_base + (gva - window_base)
        self.iommu.map(iova, hpa, writable=True)
        self.pages_mapped += 1
        vaccel.mapped_gvas.add(gva)
        if self._trace is not None:
            self._trace.instant("hv.slice.map", self.iommu.engine.now,
                                tid=self._trace_tid, cat="hv",
                                args={"vaccel": vaccel.name, "iova": iova})
        return iova
