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

import importlib

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
    "CalibrationStore",
    "CapacityConfig",
    "CellSpec",
    "CellStats",
    "SUPPORTED_BENCHMARKS",
    "capacity_des",
    "default_store",
    "plan_capacity",
    "run_capacity",
    "slot_capacity",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
