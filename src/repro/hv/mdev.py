"""Mediated devices: the virtual accelerators guests see.

The paper implements OPTIMUS with the Linux vfio-mdev framework: each
virtual accelerator is a *mediated device* — from the guest's perspective
a small PCIe function with two BARs (§5, "Guest-MMIO Layout"):

* **BAR0** — the accelerator's 4 KB MMIO page (application + control
  registers; control registers are trapped and emulated, never reaching
  hardware directly);
* **BAR2** — the hypervisor communication page (slice-base register and
  the shadow-paging hypercall registers).

:class:`VirtualAccelerator` carries everything the hypervisor needs to
schedule the guest's job onto a physical accelerator: the IOVA slice, the
registered DMA window, the cached application registers while queued, the
state buffer for preemption, and runtime accounting.  It also owns its
lifecycle: ``vacate``, ``finish`` (the one place a job ends) and the
``switched_out`` future (DESIGN.md §4, "The vaccel lifecycle").
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.accel.base import AcceleratorJob
from repro.core.slicing import Slice
from repro.sim.stats import UtilizationTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.vm import VirtualMachine
    from repro.sim.engine import Future

# BAR2 (hypervisor page) register offsets.
BAR2_SLICE_BASE = 0x00  # guest writes its reserved DMA window base GVA
BAR2_MAP_GVA = 0x08  # shadow-paging hypercall: stage the GVA
BAR2_MAP_GPA = 0x10  # shadow-paging hypercall: write GPA -> commit mapping
BAR2_STATE_BUF = 0x18  # guest writes its preemption state buffer GVA
BAR2_WINDOW_SIZE = 0x20  # guest writes its DMA window size


class VAccelState(enum.Enum):
    DETACHED = "detached"  # created, not yet attached to a physical accel
    QUEUED = "queued"  # waiting for a time slice
    SCHEDULED = "scheduled"  # currently occupying the physical accelerator
    DONE = "done"  # job finished


class VirtualAccelerator:
    """One guest's virtual accelerator (a mediated device instance)."""

    def __init__(
        self,
        vaccel_id: int,
        vm: "VirtualMachine",
        job: AcceleratorJob,
        slice_: Slice,
        physical_index: int,
    ) -> None:
        self.vaccel_id = vaccel_id
        self.vm = vm
        self.engine = vm.hypervisor.engine
        self.name = f"{vm.name}/va{vaccel_id}"
        self.job = job
        job.completion = self.engine.future()  # resolved only by finish()
        self.slice = slice_
        self.physical_index = physical_index
        self.state = VAccelState.DETACHED
        self.started = False  # set when the guest issues CMD_START

        # Guest-programmed via BAR2.
        self.window_base_gva: Optional[int] = None
        self.window_size: int = 0
        #: Bytes from the slice base of the largest window ever installed:
        #: every IOPT entry this vaccel owns lies below it, so teardown
        #: unmaps only this much of the slice (0: nothing to unmap).
        self.window_extent: int = 0
        self.state_buffer_gva: Optional[int] = None
        self._staged_map_gva: Optional[int] = None
        # GVAs the guest registered through the shadow-paging hypercall.
        # The checkpoint/restore protocol replays these on the destination
        # hypervisor to re-patch the sliced IO page table (§4.1 machinery,
        # repro.hv.checkpoint).
        self.mapped_gvas: set = set()

        # Application registers written while queued are postponed here and
        # replayed when the virtual accelerator is scheduled (§4.2).
        self.reg_cache: Dict[int, int] = {}

        # Whether the state buffer holds a saved state, its only copy.
        self.state_saved = False

        # Accounting for the fairness experiments (§6.8).
        self.utilization = UtilizationTracker(self.engine, self.name)
        self.schedule_count = 0
        self.preempt_count = 0
        self.forced_resets = 0
        self.crashes = 0  # the job's circuit ended without finishing
        self.migrations = 0
        self._switch_out: Optional["Future"] = None  # see switched_out()

        # Set by the guest watchdog when the job stops making forward
        # progress: a quarantined vaccel never re-enters the runnable set.
        self.quarantined = False

    # -- identity -----------------------------------------------------------------

    @property
    def scheduled(self) -> bool:
        return self.state is VAccelState.SCHEDULED

    # -- lifecycle (the only code that ends a job) ------------------------------------

    def switched_out(self) -> "Future":
        """Resolves when this vaccel leaves SCHEDULED (already done if it is
        not): the scheduling loop, which owns the socket, switches a vaccel
        withdrawn from its run list out at the next slice boundary."""
        if self.state is not VAccelState.SCHEDULED:
            return self.engine.completed_future(True)
        if self._switch_out is None:
            self._switch_out = self.engine.future()
        return self._switch_out

    def vacate(self) -> None:
        """End a turn on the fabric: SCHEDULED -> QUEUED, or -> DONE through
        :meth:`finish` if the job's work is over."""
        if self.job.done:
            return self.finish(True)
        self.utilization.end()
        self.state = VAccelState.QUEUED
        self._settle(True)

    def finish(self, outcome: Union[bool, BaseException]) -> None:
        """End the job for good: DONE, with ``job.completion`` and any
        switch-out waiter resolved with ``outcome`` (a result, or an
        exception to raise)."""
        self.utilization.end()
        self.job.done = True
        self.state = VAccelState.DONE
        self._settle(outcome, self.job.completion)

    def _settle(self, outcome: Union[bool, BaseException], *futures: "Future") -> None:
        waiter, self._switch_out = self._switch_out, None
        for future in (*futures, waiter):
            if future is None or future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    # -- guest-side register window ---------------------------------------------------

    def cache_register(self, offset: int, value: int) -> None:
        self.reg_cache[offset] = value

    def cached_registers(self) -> Dict[int, int]:
        return dict(self.reg_cache)

