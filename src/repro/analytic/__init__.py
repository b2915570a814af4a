"""``repro.analytic`` — the calibrated fast-forward backend.

A third stack mode beside ``optimus`` and ``passthrough``
(``make_stack("analytic", ...)``): DES-calibrated service-time cells
(:mod:`~repro.analytic.calibration`), a replaying Stack implementation
(:mod:`~repro.analytic.stack`), and a fleet-scale capacity planner
(:mod:`~repro.analytic.capacity`) that answers week-of-simulated-time,
million-tenant what-ifs in seconds while the DES path stays available as
the reference answer.
"""

from repro.analytic.calibration import (
    CalibrationStore,
    CellSpec,
    CellStats,
    LATENCY_BENCHMARKS,
    SUPPORTED_BENCHMARKS,
    calibrate_cell,
    default_store,
)
from repro.analytic.capacity import (
    CapacityConfig,
    capacity_des,
    capacity_modes,
    plan_capacity,
    run_capacity,
    slot_capacity,
)
from repro.analytic.stack import AnalyticStack

__all__ = [
    "AnalyticStack",
    "CalibrationStore",
    "CapacityConfig",
    "CellSpec",
    "CellStats",
    "LATENCY_BENCHMARKS",
    "SUPPORTED_BENCHMARKS",
    "calibrate_cell",
    "capacity_des",
    "capacity_modes",
    "default_store",
    "plan_capacity",
    "run_capacity",
    "slot_capacity",
]
