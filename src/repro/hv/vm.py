"""Virtual machines and their guest address spaces.

A :class:`VirtualMachine` models what KVM + QEMU provide in the paper's
stack: a guest-physical address space backed by pinned-on-demand host
frames (EPT), a guest process address space (the single accelerator-using
process per VM the experiments run), and functional memory access that
really moves bytes through host DRAM — so an accelerator's DMA writes are
immediately visible to guest software reads and vice versa, the
consistency property §1 demands of shared-memory virtualization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError, GuestError
from repro.mem.address import align_up
from repro.mem.allocator import RegionAllocator
from repro.mem.mmu import GuestMmu

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor


class VirtualMachine:
    """One tenant VM: guest memory plus the process using the accelerator."""

    def __init__(
        self,
        name: str,
        hypervisor: "OptimusHypervisor",
        *,
        mem_bytes: int,
        page_size: int,
        gva_stagger: int = 0,
    ) -> None:
        if mem_bytes <= 0:
            raise ConfigurationError("VM memory must be positive")
        self.name = name
        self.hypervisor = hypervisor
        self.mem_bytes = mem_bytes
        self.page_size = page_size
        # The page tables and the guest-physical allocator (a simple bump
        # region starting at 0) are built when the first page is backed:
        # a tenant that only reserves its DMA window never needs them.
        self._mmu: Optional[GuestMmu] = None
        self._gpa_alloc: Optional[RegionAllocator] = None
        # Guest-virtual space for the accelerator-using process.  Start well
        # above zero so GVAs and GPAs are visibly distinct in traces, and
        # stagger each VM's base by a few 4 KB pages (ASLR-style): with
        # 4 KB IO pages this spreads different guests' buffers over
        # different IOTLB sets, as real, independently-randomized guest
        # address spaces do.
        self._gva_alloc = RegionAllocator(
            (1 << 40) + gva_stagger, 1 << 44, granule=page_size
        )

    @property
    def mmu(self) -> GuestMmu:
        """The guest page table and EPT (built on first use)."""
        mmu = self._mmu
        if mmu is None:
            mmu = self._mmu = GuestMmu(self.name, self.page_size)
        return mmu

    # -- guest OS memory management -----------------------------------------------

    def _alloc_gpa(self, size: int) -> int:
        if self._gpa_alloc is None:
            self._gpa_alloc = RegionAllocator(0, self.mem_bytes, granule=self.page_size)
        return self._gpa_alloc.alloc(size, alignment=self.page_size)

    def alloc_pages(self, size: int) -> int:
        """Allocate guest-virtual memory backed by guest-physical pages.

        Models ``mmap`` + touching the pages: every page gets a GVA->GPA
        mapping and the hypervisor backs each GPA with a pinned-capable
        host frame (EPT entry).  Returns the GVA base.
        """
        size = align_up(size, self.page_size)
        gva = self._gva_alloc.alloc(size, alignment=self.page_size)
        gpa = self._alloc_gpa(size)
        mmu = self.mmu
        for offset in range(0, size, self.page_size):
            mmu.map_guest(gva + offset, gpa + offset)
            hpa = self.hypervisor.back_guest_page(self)
            mmu.map_host(gpa + offset, hpa)
        return gva

    def reserve_va(self, size: int, *, alignment: Optional[int] = None) -> int:
        """Reserve guest-virtual space without backing it.

        Models ``mmap(MAP_NORESERVE)`` — how the guest library reserves its
        64 GB DMA slice without allocating physical memory (§5).
        """
        size = align_up(size, self.page_size)
        return self._gva_alloc.alloc(size, alignment=alignment or self.page_size)

    def back_reserved_page(self, gva: int) -> None:
        """Materialize one page inside a reserved region (first touch)."""
        if gva % self.page_size:
            raise GuestError("page address must be aligned")
        mmu = self.mmu
        if mmu.guest_table.is_mapped(gva):
            return
        gpa = self._alloc_gpa(self.page_size)
        mmu.map_guest(gva, gpa)
        hpa = self.hypervisor.back_guest_page(self)
        mmu.map_host(gpa, hpa)

    # -- functional memory access (guest software reads/writes) ----------------------

    def write_memory(self, gva: int, data: bytes) -> None:
        """CPU-side store by the guest process; lands in host DRAM."""
        dram = self.hypervisor.platform.dram
        for chunk_gva, chunk in self._split(gva, data):
            hpa = self.mmu.gva_to_hpa(chunk_gva, write=True)
            dram.write_now(hpa, chunk)

    def read_memory(self, gva: int, size: int) -> bytes:
        """CPU-side load by the guest process; reads host DRAM."""
        dram = self.hypervisor.platform.dram
        parts = []
        current = gva
        end = gva + size
        while current < end:
            page_end = (current // self.page_size + 1) * self.page_size
            length = min(end, page_end) - current
            hpa = self.mmu.gva_to_hpa(current)
            parts.append(dram.read_now(hpa, length))
            current += length
        return b"".join(parts)

    def _split(self, gva: int, data: bytes):
        current = gva
        consumed = 0
        while consumed < len(data):
            page_end = (current // self.page_size + 1) * self.page_size
            length = min(len(data) - consumed, page_end - current)
            yield current, data[consumed : consumed + length]
            current += length
            consumed += length

    def read_u64(self, gva: int) -> int:
        return int.from_bytes(self.read_memory(gva, 8), "little")

    def write_u64(self, gva: int, value: int) -> None:
        self.write_memory(gva, (value & (2**64 - 1)).to_bytes(8, "little"))
