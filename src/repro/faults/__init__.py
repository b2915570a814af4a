"""repro.faults — deterministic chaos for the OPTIMUS stack (ISSUE 4).

A :class:`FaultPlan` is a seed plus timed :class:`FaultEvent` entries
(node crashes and recoveries, link degradation and flaps, guest hangs,
runaway DMA streams, IOTLB thrashers).  Installed on a
:class:`~repro.fleet.admission.FleetService` (via
:meth:`~repro.fleet.admission.FleetService.install_faults`) or replayed
against a single platform (:func:`run_single_chaos`), the plan executes
entirely in simulated time with one seeded RNG — the same (plan, seed)
pair always produces a byte-identical recovery trace.

The interesting part is never the fault; it is the recovery the fault
forces: admission routing around dead nodes, displaced sessions re-placed
through the typed evict contract, hung guests quarantined by the
watchdog, rogue DMA fenced by the auditors.  ``python -m repro chaos``
exposes the whole loop from the command line.
"""

from repro.faults.guests import (
    HANG_PROFILE,
    RUNAWAY_PROFILE,
    HangJob,
    RunawayDmaJob,
)
from repro.faults.injector import FaultLog, FaultRecord, FleetFaultInjector
from repro.faults.plan import (
    FAULT_PLAN_PRESETS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PlanPreset,
    build_crash_plan,
    build_degrade_crash_plan,
    preset_names,
    register_preset,
    resolve_plan,
)
from repro.faults.single import SinglePlatformChaos, run_single_chaos

__all__ = [
    "FAULT_PLAN_PRESETS",
    "FaultEvent",
    "FaultKind",
    "FaultLog",
    "FaultPlan",
    "FaultRecord",
    "FleetFaultInjector",
    "HANG_PROFILE",
    "HangJob",
    "PlanPreset",
    "RUNAWAY_PROFILE",
    "RunawayDmaJob",
    "SinglePlatformChaos",
    "build_crash_plan",
    "build_degrade_crash_plan",
    "preset_names",
    "register_preset",
    "resolve_plan",
    "run_single_chaos",
]
