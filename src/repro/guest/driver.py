"""The guest FPGA driver (§4.3, §5).

Inside each VM a small driver prepares a virtual accelerator for
userspace: it discovers the mediated device's BARs, reserves the 64 GB
DMA region with ``mmap(MAP_NORESERVE)`` (no physical memory committed),
publishes the region's base through BAR2 so the hypervisor can compute
the slicing offset, and services the userspace library's requests to make
individual pages FPGA-accessible via the shadow-paging hypercall.

The driver is deliberately thin — policy lives in the userspace library
(:mod:`repro.guest.api`), mirroring the paper's split between the guest
driver (2,033 lines of C together with the library) and application code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GuestError
from repro.hv.mdev import (
    BAR2_MAP_GPA,
    BAR2_MAP_GVA,
    BAR2_SLICE_BASE,
    BAR2_STATE_BUF,
    BAR2_WINDOW_SIZE,
    VirtualAccelerator,
)
from repro.mem.address import align_up

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor
    from repro.hv.vm import VirtualMachine


class GuestFpgaDriver:
    """Kernel-side plumbing for one virtual accelerator inside a guest."""

    def __init__(
        self,
        hypervisor: "OptimusHypervisor",
        vm: "VirtualMachine",
        vaccel: VirtualAccelerator,
    ) -> None:
        if vaccel.vm is not vm:
            raise GuestError("virtual accelerator belongs to a different VM")
        self.hypervisor = hypervisor
        self.vm = vm
        self.vaccel = vaccel
        self.window_base: int = 0
        self.window_size: int = 0

    # -- initialization ------------------------------------------------------------

    def probe(self, window_size: int) -> int:
        """Reserve the DMA window and tell the HV via posted BAR2 writes.

        Returns the window's base GVA.  ``window_size`` defaults to the
        full slice in the userspace library; smaller windows keep the
        dummy-page backing cheap for small experiments.
        """
        page = self.vm.page_size
        window_size = align_up(window_size, page)
        if window_size <= 0 or window_size > self.vaccel.slice.size:
            raise GuestError("window size must be within the 64 GB slice")
        # mmap(MAP_NORESERVE): address space only, no physical backing.
        self.window_base = self.vm.reserve_va(window_size, alignment=page)
        self.window_size = window_size
        self.hypervisor.guest_bar2_write(self.vaccel, BAR2_SLICE_BASE, self.window_base)
        self.hypervisor.guest_bar2_write(self.vaccel, BAR2_WINDOW_SIZE, window_size)
        return self.window_base

    # -- page registration (the shadow-paging hypercall) ------------------------------

    def make_page_accessible(self, gva: int) -> None:
        """Fault in one window page and register it with the hypervisor."""
        page = self.vm.page_size
        if gva % page:
            raise GuestError("page address must be aligned")
        self.vm.back_reserved_page(gva)
        gpa = self.vm.mmu.gva_to_gpa(gva)
        self.hypervisor.guest_bar2_write(self.vaccel, BAR2_MAP_GVA, gva)
        self.hypervisor.guest_bar2_write(self.vaccel, BAR2_MAP_GPA, gpa)

    def make_region_accessible(self, gva: int, size: int) -> int:
        """Register every page of a region; returns the page count."""
        page = self.vm.page_size
        first = gva - (gva % page)
        count = 0
        current = first
        while current < gva + size:
            self.make_page_accessible(current)
            count += 1
            current += page
        return count

    # -- preemption support -----------------------------------------------------------

    def register_state_buffer(self, gva: int) -> None:
        """Tell the hypervisor where to spill accelerator state (§4.2)."""
        self.hypervisor.guest_bar2_write(self.vaccel, BAR2_STATE_BUF, gva)
