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

The injector and the single-platform replay import the fleet stack and
the OPTIMUS stack, so they load on first use of one of their names (PEP
562): the CLI reads the preset names without paying for either.
"""

from repro import lazy_exports
from repro.faults.guests import (
    HANG_PROFILE,
    RUNAWAY_PROFILE,
    HangJob,
    RunawayDmaJob,
)
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

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "FaultLog": "repro.faults.injector",
    "FaultRecord": "repro.faults.injector",
    "FleetFaultInjector": "repro.faults.injector",
    "SinglePlatformChaos": "repro.faults.single",
    "run_single_chaos": "repro.faults.single",
}

__all__ = [
    "FAULT_PLAN_PRESETS",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "HANG_PROFILE",
    "HangJob",
    "PlanPreset",
    "RUNAWAY_PROFILE",
    "RunawayDmaJob",
    "build_crash_plan",
    "build_degrade_crash_plan",
    "preset_names",
    "register_preset",
    "resolve_plan",
    *_LAZY,
]

__getattr__ = lazy_exports(globals(), _LAZY)
