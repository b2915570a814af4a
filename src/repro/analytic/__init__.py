"""``repro.analytic`` — the fidelity behind the ``capacity`` command.

A fleet-scale capacity planner (:mod:`~repro.analytic.capacity`): an
exact closed form while no accelerator type saturates, a fluid/diffusion
model under contention, and the fleet DES on identical seeded traffic as
the reference answer.  Its optional per-type goodput multiplies planned
utilization by DES-calibrated per-slot throughput
(:mod:`~repro.analytic.calibration`).

``capacity`` has two backends, :data:`CAPACITY_MODES`: ``analytic`` (the
planner) and ``optimus`` (the fleet DES).  They are a separate list from
the experiment stack modes (``harness.STACK_MODES``).

The planner and the calibration store import numpy and the fleet stack,
so they load on first use of one of their names (PEP 562): the CLI reads
:data:`CAPACITY_MODES` without paying for either.
"""

from repro import lazy_exports

#: ``capacity`` backends: the analytic planner and the fleet DES.
CAPACITY_MODES = ("analytic", "optimus")

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "CalibrationStore": "repro.analytic.calibration",
    "CellSpec": "repro.analytic.calibration",
    "CellStats": "repro.analytic.calibration",
    "SUPPORTED_BENCHMARKS": "repro.analytic.calibration",
    "default_store": "repro.analytic.calibration",
    "CapacityConfig": "repro.analytic.capacity",
    "capacity_des": "repro.analytic.capacity",
    "plan_capacity": "repro.analytic.capacity",
    "run_capacity": "repro.analytic.capacity",
    "slot_capacity": "repro.analytic.capacity",
}

__all__ = [
    "CAPACITY_MODES",
    *_LAZY,
]

__getattr__ = lazy_exports(globals(), _LAZY)
