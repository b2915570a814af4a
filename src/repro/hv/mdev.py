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
state buffer for preemption, and runtime accounting.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional

from repro.accel.base import AcceleratorJob
from repro.core.slicing import Slice
from repro.sim.stats import UtilizationTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.vm import VirtualMachine

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
        self.job = job
        self.slice = slice_
        self.physical_index = physical_index
        self.state = VAccelState.DETACHED
        self.started = False  # set when the guest issues CMD_START

        # Guest-programmed via BAR2.
        self.window_base_gva: Optional[int] = None
        self.window_size: int = 0
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

        # Last successfully saved architected state (None = never saved).
        self.saved_state: Optional[bytes] = None

        # Accounting for the fairness experiments (§6.8).
        self.utilization: Optional[UtilizationTracker] = None
        self.schedule_count = 0
        self.preempt_count = 0
        self.forced_resets = 0

        # Set by the guest watchdog when the job stops making forward
        # progress: a quarantined vaccel never re-enters the runnable set.
        self.quarantined = False

    # -- identity -----------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.vm.name}/va{self.vaccel_id}"

    @property
    def scheduled(self) -> bool:
        return self.state is VAccelState.SCHEDULED

    # -- guest-side register window ---------------------------------------------------

    def cache_register(self, offset: int, value: int) -> None:
        self.reg_cache[offset] = value

    def cached_registers(self) -> Dict[int, int]:
        return dict(self.reg_cache)
