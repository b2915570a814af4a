"""The guest userspace library (§4.3).

"OPTIMUS offers a customized driver and a userspace library that work in
tandem to allow for application-level programming of accelerators."  The
library lets a guest application:

* connect to / disconnect from a virtual accelerator,
* reset it,
* program it through its MMIO region (application registers),
* manage DMA memory: allocate buffers inside the reserved window, move
  data in and out, and start/await acceleration jobs.

:class:`GuestAccelerator` is the OPTIMUS-virtualized flavour;
:class:`NativeAccelerator` provides the same surface over the
pass-through/native platform so benchmarks run unchanged on both — which
is exactly how the paper's overhead experiments are constructed.

Both handles share one lifecycle surface: ``connected``, ``disconnect()``
(idempotent), ``reset()``, and the context-manager protocol, so

    with hypervisor.connect(vm, job) as accel:
        ...

releases the accelerator on exit even when the body raises.  Explicit
construction plus an explicit ``disconnect()`` keeps working unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.accel.base import CMD_START, CTRL_CMD, CTRL_STATUS
from repro.errors import ConfigurationError, GuestError
from repro.guest.driver import GuestFpgaDriver
from repro.hv.mdev import VirtualAccelerator
from repro.mem.address import MB, PAGE_SIZE_4K, align_up
from repro.mem.allocator import RegionAllocator
from repro.sim.engine import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor
    from repro.hv.passthrough import PassthroughHypervisor
    from repro.hv.vm import VirtualMachine


def buffer_stagger(page_size: int, vaccel_id: int) -> int:
    """Where a tenant's buffers start inside its window.

    Buffer placement inside the window varies per tenant (allocator
    history, ASLR): model it with a per-vaccel page stagger.  The slicing
    offset maps window offsets 1:1 into the IOVA slice, so this is what
    spreads different tenants' pages across IOTLB sets when 4 KB pages are
    in use: 64 pages (256 KB) per tenant, the same set-skew idea as the
    2 MB-mode slice gaps, applied at 4 KB granularity.
    """
    if page_size != PAGE_SIZE_4K:
        return 0
    return (vaccel_id % 8) * 64 * PAGE_SIZE_4K


class GuestAccelerator:
    """Application-level handle to one OPTIMUS virtual accelerator."""

    def __init__(
        self,
        hypervisor: "OptimusHypervisor",
        vm: "VirtualMachine",
        vaccel: VirtualAccelerator,
        *,
        window_bytes: int = 512 * MB,
    ) -> None:
        self.hypervisor = hypervisor
        self.vm = vm
        self.vaccel = vaccel
        self.driver = GuestFpgaDriver(hypervisor, vm, vaccel)
        base = self.driver.probe(window_bytes)
        stagger = buffer_stagger(vm.page_size, vaccel.vaccel_id)
        if window_bytes <= stagger:
            raise ConfigurationError("allocator size must be positive")
        self._buffer_span = (base + stagger, window_bytes - stagger)
        self._buffers: Optional[RegionAllocator] = None
        self.connected = True
        #: Called once after a successful disconnect (the cloud provider
        #: uses this to drop its tenant bookkeeping when a guest releases
        #: the handle itself).
        self._on_disconnect: Optional[Callable[[], None]] = None

    @classmethod
    def adopt(
        cls,
        hypervisor: "OptimusHypervisor",
        vm: "VirtualMachine",
        vaccel: VirtualAccelerator,
    ) -> "GuestAccelerator":
        """Wrap an already-restored virtual accelerator in a fresh handle.

        Used after :func:`repro.hv.checkpoint.restore_guest`: the window is
        registered and the shadow mappings are replayed, so probing again
        (which reserves a new window and reprograms BAR2) would be wrong.
        Buffer-allocator history does not survive migration: pages the
        source guest registered stay mapped, so the destination handle
        allocates only above the highest of them.
        """
        handle = cls.__new__(cls)
        handle.hypervisor = hypervisor
        handle.vm = vm
        handle.vaccel = vaccel
        handle.driver = GuestFpgaDriver(hypervisor, vm, vaccel)
        base = vaccel.window_base_gva or 0
        start = base + buffer_stagger(vm.page_size, vaccel.vaccel_id)
        if vaccel.mapped_gvas:
            start = max(start, max(vaccel.mapped_gvas) + vm.page_size)
        handle._buffer_span = (start, max(base + vaccel.window_size - start, 64))
        handle._buffers = None
        handle.connected = True
        handle._on_disconnect = None
        return handle

    # -- connection lifecycle ---------------------------------------------------

    def __enter__(self) -> "GuestAccelerator":
        self._check()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disconnect()

    def disconnect(self) -> None:
        """Release the virtual accelerator; safe to call more than once."""
        if not self.connected:
            return
        self.connected = False
        self.hypervisor.destroy_virtual_accelerator(self.vaccel)
        # Take the hook and clear it: the provider's closes over its tenant,
        # which holds this handle — kept, every departed guest is a cycle.
        hook, self._on_disconnect = self._on_disconnect, None
        if hook is not None:
            hook()

    def _check(self) -> None:
        if not self.connected:
            raise GuestError("accelerator handle is disconnected")

    # -- DMA memory management -----------------------------------------------------

    def buffer_allocator(self) -> RegionAllocator:
        """The window's buffer allocator, built on first use: a tenant that
        never allocates a buffer never pays for one."""
        if self._buffers is None:
            base, size = self._buffer_span
            self._buffers = RegionAllocator(base, size, granule=64)
        return self._buffers

    def alloc_buffer(self, size: int) -> int:
        """Allocate an FPGA-accessible buffer; returns its GVA.

        Pages are faulted in and registered via the shadow-paging
        hypercall, page-aligned so partially covered pages never leak
        another allocation's data to the device.
        """
        self._check()
        page = self.vm.page_size
        gva = self.buffer_allocator().alloc(align_up(size, page), alignment=page)
        self.driver.make_region_accessible(gva, size)
        return gva

    def free_buffer(self, gva: int) -> None:
        self._check()
        self.buffer_allocator().free(gva)

    def write_buffer(self, gva: int, data: bytes) -> None:
        """CPU store into shared memory (visible to the accelerator)."""
        self._check()
        self.vm.write_memory(gva, data)

    def read_buffer(self, gva: int, size: int) -> bytes:
        """CPU load from shared memory (sees accelerator writes)."""
        self._check()
        return self.vm.read_memory(gva, size)

    # -- MMIO programming ----------------------------------------------------------------

    def mmio_write(self, offset: int, value: int) -> Future:
        self._check()
        return self.hypervisor.guest_mmio_write(self.vaccel, offset, value)

    def mmio_read(self, offset: int) -> Future:
        self._check()
        return self.hypervisor.guest_mmio_read(self.vaccel, offset)

    def reset(self) -> None:
        """Reset the virtual accelerator's (cached) register state."""
        self._check()
        self.vaccel.reg_cache.clear()

    # -- job control -----------------------------------------------------------------------

    def setup_preemption(self) -> int:
        """Allocate and register the job's state buffer, its only state copy (§4.2)."""
        self._check()
        size = max(self.vm.page_size, self.vaccel.job.state_size())
        buffer_gva = self.alloc_buffer(size)
        self.driver.register_state_buffer(buffer_gva)
        return buffer_gva

    def start(self) -> Future:
        """Issue CMD_START; returns the job's completion future."""
        self._check()
        if self.vaccel.state_buffer_gva is None:
            self.setup_preemption()
        self.mmio_write(CTRL_CMD, CMD_START)
        return self.vaccel.job.completion

    def status(self) -> Future:
        return self.mmio_read(CTRL_STATUS)


class NativeAccelerator:
    """The same application surface over pass-through / native hardware."""

    def __init__(
        self,
        hypervisor: "PassthroughHypervisor",
        *,
        window_bytes: int = 512 * MB,
    ) -> None:
        self.hypervisor = hypervisor
        vm = hypervisor.vm or hypervisor.create_vm()
        self.vm = vm
        base = vm.reserve_va(window_bytes, alignment=vm.page_size)
        self._buffers = RegionAllocator(base, window_bytes, granule=64)
        self.connected = True
        self._on_disconnect: Optional[Callable[[], None]] = None

    # -- connection lifecycle ---------------------------------------------------

    def __enter__(self) -> "NativeAccelerator":
        self._check()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disconnect()

    def disconnect(self) -> None:
        """Release the directly assigned accelerator; idempotent."""
        if not self.connected:
            return
        self.connected = False
        if self._on_disconnect is not None:
            self._on_disconnect()

    def _check(self) -> None:
        if not self.connected:
            raise GuestError("accelerator handle is disconnected")

    def reset(self) -> None:
        """Clear the physical accelerator's application registers."""
        self._check()
        self.hypervisor.platform.sockets[0].registers.clear()

    # -- DMA memory management -----------------------------------------------------

    def alloc_buffer(self, size: int) -> int:
        self._check()
        page = self.vm.page_size
        gva = self._buffers.alloc(align_up(size, page), alignment=page)
        current = gva
        while current < gva + size:
            self.vm.back_reserved_page(current)
            current += page
        # vIOMMU (virtualized) or IOMMU (native): identity GVA -> IOVA.
        self.hypervisor.viommu_map_region(gva, size)
        return gva

    def free_buffer(self, gva: int) -> None:
        self._check()
        self._buffers.free(gva)

    def write_buffer(self, gva: int, data: bytes) -> None:
        self._check()
        self.vm.write_memory(gva, data)

    def read_buffer(self, gva: int, size: int) -> bytes:
        self._check()
        return self.vm.read_memory(gva, size)

    # -- MMIO programming ----------------------------------------------------------------

    def mmio_write(self, offset: int, value: int) -> Future:
        self._check()
        return self.hypervisor.mmio_write(offset, value)

    def mmio_read(self, offset: int) -> Future:
        self._check()
        return self.hypervisor.mmio_read(offset)

    # -- job control -----------------------------------------------------------------------

    def start(self, job, **kwargs) -> Future:
        self._check()
        return self.hypervisor.start_job(job, **kwargs)
