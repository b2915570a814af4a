"""The OPTIMUS hypervisor (§4, §5).

``OptimusHypervisor`` is the software half of the co-design.  It follows
the mediated pass-through architecture: every control-plane operation
(MMIO, hypercalls) traps here; the data plane (accelerator DMAs) flows
through the hardware monitor without hypervisor involvement.

Responsibilities, mapped to the paper:

* **VM and mediated-device lifecycle** — ``create_vm`` /
  ``create_virtual_accelerator`` (vfio-mdev in the paper's prototype);
* **MMIO trap-and-emulate** — BAR0 accesses are validated and forwarded
  to the physical accelerator when the virtual accelerator is scheduled,
  or postponed to the register cache when it is queued (§4.2); control
  registers are always emulated and never reach hardware from a guest;
* **Page table slicing management** — allocating a 64 GB (+128 MB gap)
  IOVA slice per virtual accelerator and programming offset-table entries
  through the VCU;
* **Shadow paging** — servicing the BAR2 hypercall that maps guest pages
  into the sliced IO page table (§5);
* **Preemptive temporal multiplexing** — one
  :class:`~repro.hv.preemption.PhysicalAccelerator` manager per socket.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import List, NamedTuple, Optional

from repro.accel.base import (
    CMD_PREEMPT,
    CMD_START,
    CTRL_CMD,
    CTRL_STATE_ADDR,
    CTRL_STATE_SIZE,
    CTRL_STATUS,
    STATUS_DONE,
    STATUS_IDLE,
    STATUS_RUNNING,
    AcceleratorJob,
)
from repro.core.slicing import SliceLayout
from repro.errors import ConfigurationError, GuestError
from repro.hv.mdev import (
    BAR2_MAP_GPA,
    BAR2_MAP_GVA,
    BAR2_SLICE_BASE,
    BAR2_STATE_BUF,
    BAR2_WINDOW_SIZE,
    VAccelState,
    VirtualAccelerator,
)
from repro.hv.preemption import PhysicalAccelerator
from repro.hv.shadow import DUMMY_BACKING_PAGE_LIMIT, ShadowPager
from repro.hv.vm import VirtualMachine
from repro.mem.address import GB, MB, align_up
from repro.mem.allocator import FrameAllocator
from repro.platform.builder import Platform, PlatformMode
from repro.sim.engine import Future

#: Host physical memory below this is considered host-reserved.
HOST_RESERVED_BYTES = 4 * GB


class Reservation(NamedTuple):
    """What booting one guest takes from a hypervisor's shared counters,
    claimed ahead of the boot (:meth:`OptimusHypervisor.reserve`)."""

    vm_index: int  # drives the VM's GVA stagger
    vaccel_id: int  # names the vaccel and drives its buffer stagger
    slice_index: int  # the IOVA slice


class OptimusHypervisor:
    """The hypervisor for an OPTIMUS-configured platform."""

    def __init__(self, platform: Platform) -> None:
        if platform.mode is not PlatformMode.OPTIMUS:
            raise ConfigurationError(
                "OptimusHypervisor requires an OPTIMUS-mode platform "
                "(use PassthroughHypervisor for direct assignment)"
            )
        self.platform = platform
        self.engine = platform.engine
        params = platform.params
        self.page_size = params.page_size
        self.layout = SliceLayout(
            slice_bytes=params.slice_bytes,
            gap_bytes=params.slice_gap_bytes if params.conflict_mitigation else 0,
            page_size=self.page_size,
        )
        self.frames = FrameAllocator(
            align_up(HOST_RESERVED_BYTES, self.page_size),
            platform.dram.size_bytes - align_up(HOST_RESERVED_BYTES, self.page_size),
            self.page_size,
        )
        self.shadow = ShadowPager(self, platform.iommu)
        # VMs ever booted, for the GVA stagger; no guest is referenced here.
        self._vm_indices = count()
        self.vaccels: List[VirtualAccelerator] = []
        self.physical: List[PhysicalAccelerator] = [
            PhysicalAccelerator(self, i) for i in range(platform.n_sockets)
        ]
        self._dummy_frame: Optional[int] = None
        #: Monotonic vaccel ids (never reused: watchdog bookkeeping and
        #: scheduler tie-breaks key on them) and the IOVA slice free list
        #: teardown recycles into (DESIGN.md §10, "Tenant lifecycle").
        self._vaccel_ids = count()
        self._next_slice = 0
        self._free_slices: List[int] = []
        self.mmio_traps = 0
        # Optional per-guest forward-progress watchdog (repro.hv.watchdog);
        # enabled explicitly because it spawns one process per vaccel.
        self.watchdog = None

    # -- host memory services -----------------------------------------------------

    def back_guest_page(self, _vm: VirtualMachine) -> int:
        """Allocate one host frame to back a guest-physical page."""
        return self.frames.alloc_frame()

    def dummy_frame(self) -> int:
        """The shared scratch frame backing unregistered window pages (§5)."""
        if self._dummy_frame is None:
            self._dummy_frame = self.frames.alloc_frame()
        return self._dummy_frame

    # -- IOVA slices and reservations ---------------------------------------------------

    def _claim_slice(self) -> int:
        """An IOVA slice: the lowest-based freed one, else a new one."""
        if self._free_slices:
            return heapq.heappop(self._free_slices)
        slice_index = self._next_slice
        if slice_index >= self.layout.max_slices:
            raise ConfigurationError("IO virtual address space exhausted")
        self._next_slice += 1
        return slice_index

    def release_slice(self, slice_index: int) -> None:
        """Return an IOVA slice to the free list."""
        heapq.heappush(self._free_slices, slice_index)

    def reserve(self, window_bytes: int) -> Reservation:
        """Claim now what booting a guest with a ``window_bytes`` DMA window
        takes later: its VM index, vaccel id and IOVA slice, and the dummy
        frame if this is the first window it backs (DESIGN.md §10).

        Passing the reservation's ids to :meth:`create_vm` and
        :meth:`create_virtual_accelerator` builds the guest this call would
        have built, whatever happened in between; a guest never built hands
        its slice back with :meth:`release_slice`.
        """
        window = align_up(window_bytes, self.page_size)
        if not 0 < window <= self.layout.slice_bytes:
            raise GuestError("window size must be within the 64 GB slice")
        slice_index = self._claim_slice()
        if window // self.page_size <= DUMMY_BACKING_PAGE_LIMIT:
            self.dummy_frame()
        return Reservation(next(self._vm_indices), next(self._vaccel_ids), slice_index)

    # -- lifecycle ----------------------------------------------------------------------

    def create_vm(
        self, name: str, mem_bytes: int = 10 * GB, *, index: Optional[int] = None
    ) -> VirtualMachine:
        """Boot a guest; the paper allocates 10 GB per guest (§6.1)."""
        if index is None:
            index = next(self._vm_indices)
        return VirtualMachine(
            name,
            self,
            mem_bytes=mem_bytes,
            page_size=self.page_size,
            gva_stagger=index * 37 * 4096,  # ASLR-style spread
        )

    def create_virtual_accelerator(
        self,
        vm: VirtualMachine,
        job: AcceleratorJob,
        *,
        physical_index: int = 0,
        vaccel_id: Optional[int] = None,
        slice_index: Optional[int] = None,
    ) -> VirtualAccelerator:
        """Create a mediated device for ``vm`` on one physical accelerator
        (with a :class:`Reservation`'s id and slice when given)."""
        if not 0 <= physical_index < len(self.physical):
            raise ConfigurationError(f"no physical accelerator {physical_index}")
        if slice_index is None:
            slice_index = self._claim_slice()
        if vaccel_id is None:
            vaccel_id = next(self._vaccel_ids)
        vaccel = VirtualAccelerator(
            vaccel_id=vaccel_id,
            vm=vm,
            job=job,
            slice_=self.layout.slice_for(slice_index),
            physical_index=physical_index,
        )
        self.vaccels.append(vaccel)
        self.physical[physical_index].attach(vaccel)
        if self.watchdog is not None:
            self.watchdog.watch(vaccel)
        return vaccel

    def connect(
        self,
        vm: VirtualMachine,
        job: AcceleratorJob,
        *,
        physical_index: int = 0,
        window_bytes: int = 512 * MB,
    ):
        """Create a vaccel and hand back a connected guest handle.

        Returns a :class:`~repro.guest.api.GuestAccelerator` usable as a
        context manager: ``with hv.connect(vm, job) as accel: ...``
        releases the virtual accelerator on exit.
        """
        from repro.guest.api import GuestAccelerator

        vaccel = self.create_virtual_accelerator(
            vm, job, physical_index=physical_index
        )
        try:
            return GuestAccelerator(self, vm, vaccel, window_bytes=window_bytes)
        except Exception:
            self.destroy_virtual_accelerator(vaccel)  # a refused guest leaves nothing
            raise

    def enable_watchdog(self, deadline_ps: int):
        """Turn on the per-guest forward-progress watchdog.

        Existing vaccels are adopted immediately; future ones are watched
        from :meth:`create_virtual_accelerator`.  Returns the watchdog so
        callers can read its quarantine log.
        """
        from repro.hv.watchdog import GuestWatchdog

        if self.watchdog is None:
            self.watchdog = GuestWatchdog(self, deadline_ps)
        else:
            self.watchdog.deadline_ps = deadline_ps
        for vaccel in self.vaccels:
            self.watchdog.watch(vaccel)
        return self.watchdog

    def migrate_virtual_accelerator(
        self, vaccel: VirtualAccelerator, destination_index: int
    ) -> Future:
        """Move a virtual accelerator to another physical slot (§7.1).

        Uses the standard preemption protocol; the IOVA slice and every
        IO-page-table entry stay put.  See :mod:`repro.hv.migration`.
        """
        from repro.hv.migration import migrate

        return migrate(self, vaccel, destination_index)

    def destroy_virtual_accelerator(self, vaccel: VirtualAccelerator) -> None:
        """Tear down a mediated device, unmapping and recycling its slice."""
        self.shadow.teardown_window(vaccel)
        manager = self.physical[vaccel.physical_index]
        if vaccel in manager.vaccels:
            manager.vaccels.remove(vaccel)
        vaccel.state = VAccelState.DETACHED
        # Reclaim everything keyed on the torn-down device: its IOVA slice
        # (reused lowest-base-first), our reference, the watchdog's.
        if vaccel in self.vaccels:
            self.vaccels.remove(vaccel)
            self.release_slice(vaccel.slice.index)
        if self.watchdog is not None:
            self.watchdog.unwatch(vaccel)

    # -- guest control plane: BAR0 (trap-and-emulate, §4.2) ----------------------------------

    def guest_mmio_write(self, vaccel: VirtualAccelerator, offset: int, value: int) -> Future:
        """A guest store to BAR0; returns a future for the trap's completion."""
        self.mmio_traps += 1
        if offset in (CTRL_CMD, CTRL_STATUS, CTRL_STATE_ADDR, CTRL_STATE_SIZE):
            self._emulate_control_write(vaccel, offset, value)
        else:
            # Application register: postpone if queued, forward if scheduled.
            vaccel.cache_register(offset, value)
            if vaccel.scheduled:
                manager = self.physical[vaccel.physical_index]
                manager.socket.mmio_write(offset, value)
            if vaccel.job is not None:
                vaccel.job.configure({offset: value})
        return self.engine.timer(self.platform.params.mmio_trap_ps)

    def guest_mmio_read(self, vaccel: VirtualAccelerator, offset: int) -> Future:
        """A guest load from BAR0; resolves to the (emulated) value."""
        self.mmio_traps += 1
        if offset == CTRL_STATUS:
            value = self._emulated_status(vaccel)
        elif offset == CTRL_STATE_SIZE:
            value = vaccel.job.state_size()
        elif vaccel.scheduled:
            value = self.physical[vaccel.physical_index].socket.mmio_read(offset)
        else:
            value = vaccel.reg_cache.get(offset, 0)
        return self.engine.timer(self.platform.params.mmio_trap_ps, value)

    def _emulate_control_write(
        self, vaccel: VirtualAccelerator, offset: int, value: int
    ) -> None:
        if offset == CTRL_CMD and value == CMD_START:
            self.start_job(vaccel)
        elif offset == CTRL_CMD and value == CMD_PREEMPT:
            raise GuestError("guests may not drive the preemption interface")

    def _emulated_status(self, vaccel: VirtualAccelerator) -> int:
        # The hypervisor hides the *physical* accelerator's status: a queued
        # virtual accelerator still reads RUNNING for its own job (§4.2).
        if vaccel.job.done:
            return STATUS_DONE
        if vaccel.started:
            return STATUS_RUNNING
        return STATUS_IDLE

    # -- guest control plane: BAR2 (hypervisor page) ----------------------------------------------

    def guest_bar2_write(self, vaccel: VirtualAccelerator, offset: int, value: int) -> None:
        """A posted guest store to BAR2: takes effect now, schedules nothing.

        Writing either window register unregisters every registered page
        (DESIGN.md §12): the guest registers them again, as it must anyway,
        since installing the window backs its pages with the dummy frame.
        """
        self.mmio_traps += 1
        if offset == BAR2_SLICE_BASE:
            vaccel.window_base_gva = value
            vaccel.mapped_gvas.clear()
        elif offset == BAR2_WINDOW_SIZE:
            self.shadow.install_window(vaccel, value)
            vaccel.mapped_gvas.clear()
        elif offset == BAR2_MAP_GVA:
            vaccel._staged_map_gva = value
        elif offset == BAR2_MAP_GPA:
            gva = vaccel._staged_map_gva
            if gva is None:
                raise GuestError("hypercall: write the GVA register first")
            self.shadow.map_page(vaccel, gva, value)
            vaccel._staged_map_gva = None
        elif offset == BAR2_STATE_BUF:
            vaccel.state_buffer_gva = value
        else:
            raise GuestError(f"unknown BAR2 register {offset:#x}")

    # -- job control -----------------------------------------------------------------------------------

    def start_job(self, vaccel: VirtualAccelerator) -> None:
        """Mark the job runnable and kick the physical scheduler."""
        if vaccel.window_base_gva is None:
            raise GuestError(f"{vaccel.name}: register a DMA window before starting")
        if vaccel.state_buffer_gva is None:
            raise GuestError(f"{vaccel.name}: register a state buffer before starting")
        vaccel.started = True
        manager = self.physical[vaccel.physical_index]
        manager.start()

    def run_until_done(self, vaccels: Optional[List[VirtualAccelerator]] = None,
                       limit_ps: Optional[int] = None) -> None:
        """Drive the simulation until every given job completes."""
        targets = vaccels if vaccels is not None else self.vaccels
        for vaccel in targets:
            future = vaccel.job.completion
            if not future.done():
                self.engine.run_until(future, limit_ps=limit_ps)
