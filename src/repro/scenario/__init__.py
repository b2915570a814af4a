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
"""

from repro.scenario.generator import ScenarioGenerator, generate
from repro.scenario.oracle import ORACLES, OracleResult, run_scenario
from repro.scenario.runner import FuzzConfig, FuzzReport, replay, run_fuzz
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

__all__ = [
    "Choice",
    "FuzzConfig",
    "FuzzReport",
    "ORACLES",
    "OracleResult",
    "SCENARIO_KINDS",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioKind",
    "ScenarioSpaceError",
    "ShrinkResult",
    "Subset",
    "generate",
    "kind_names",
    "load_reproducer",
    "register_kind",
    "replay",
    "resolve_kinds",
    "run_fuzz",
    "run_scenario",
    "shrink",
    "write_reproducer",
]
