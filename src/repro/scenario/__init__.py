"""repro.scenario — constrained-random differential fuzzing (ISSUE 9).

The test suite pins hand-picked configurations; this package generates
them.  A seeded :class:`ScenarioGenerator` draws typed scenarios from the
discrete config space in :mod:`repro.scenario.space` (guest mixes,
IOTLB-conflicting address layouts, placement policies, fault-plan
presets, serve traces, capacity regimes), the differential oracle
(:mod:`repro.scenario.oracle`) runs each one two ways that must agree to
the byte — burst fast path vs per-line reference, serial vs sharded,
analytic vs DES —
plus the property checks in :mod:`repro.scenario.properties`, and
failing scenarios are delta-debugged down to minimal canonical-JSON
reproducers (:mod:`repro.scenario.shrink`).  ``python -m repro fuzz``
is the CLI; ``--replay file.json`` re-runs a shrunk reproducer.

The generator, oracle and runner import numpy and the fleet stack, so
they load on first use of one of their names (PEP 562): the CLI reads
the kind names without paying for either.
"""

from repro import lazy_exports
from repro.scenario.shrink import (
    ShrinkResult,
    load_reproducer,
    shrink,
    write_reproducer,
)
from repro.scenario.space import (
    SCENARIO_KINDS,
    Choice,
    Scenario,
    ScenarioKind,
    ScenarioSpaceError,
    Subset,
    kind_names,
    register_kind,
    resolve_kinds,
)

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "ScenarioGenerator": "repro.scenario.generator",
    "generate": "repro.scenario.generator",
    "ORACLES": "repro.scenario.oracle",
    "OracleResult": "repro.scenario.oracle",
    "run_scenario": "repro.scenario.oracle",
    "FuzzConfig": "repro.scenario.runner",
    "FuzzReport": "repro.scenario.runner",
    "replay": "repro.scenario.runner",
    "run_fuzz": "repro.scenario.runner",
}

__all__ = [
    "Choice",
    "SCENARIO_KINDS",
    "Scenario",
    "ScenarioKind",
    "ScenarioSpaceError",
    "ShrinkResult",
    "Subset",
    "kind_names",
    "load_reproducer",
    "register_kind",
    "resolve_kinds",
    "shrink",
    "write_reproducer",
    *_LAZY,
]

__getattr__ = lazy_exports(globals(), _LAZY)
