"""The typed, discrete scenario space the fuzzer draws from.

A :class:`Scenario` is one fully-specified differential experiment: a
*kind* (which oracle runs it — see :mod:`repro.scenario.oracle`) plus a
value for every field of that kind's :class:`ScenarioKind` spec.  Fields
are **discrete and ordered**: each :class:`Field` enumerates its domain
simplest-value-first, which gives the three derived behaviors one
definition —

* **generation** draws uniformly from the domain (constrained by the
  kind's predicates — riescue-style constrained-random);
* **shrinking** walks a failing value toward the front of the domain
  (:meth:`Field.shrink_candidates`), so a minimal reproducer is minimal
  *in the ordering the space declares*, deterministically;
* **serialization** is canonical JSON of ``{"kind", "fields"}``, so the
  same scenario always has the same digest and a shrunk reproducer
  replays byte-identically from disk.

Kinds live in the :data:`SCENARIO_KINDS` registry (the ``STACK_MODES`` /
``FAULT_PLAN_PRESETS`` idiom): registering a kind is the whole job of
adding a new differential surface — the generator, shrinker, CLI
``--kinds`` choices, and envelope all derive from the table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import preset_names
from repro.mem.address import PAGE_SIZE_2M, PAGE_SIZE_4K

if TYPE_CHECKING:
    import numpy as np


class ScenarioSpaceError(ConfigurationError):
    """A scenario violates its kind's spec (bad field, value, constraint)."""


# -- fields ----------------------------------------------------------------------


@dataclass(frozen=True)
class Choice:
    """One discrete field: an ordered tuple of values, simplest first."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ScenarioSpaceError(f"field {self.name!r} has an empty domain")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ScenarioSpaceError(f"field {self.name!r} has duplicate values")

    def draw(self, rng: np.random.RandomState) -> object:
        return self.values[int(rng.randint(len(self.values)))]

    def validate(self, value: object) -> bool:
        return value in self.values

    def shrink_candidates(self, value: object) -> List[object]:
        """Strictly simpler values, simplest first."""
        index = self.values.index(value)
        return list(self.values[:index])


@dataclass(frozen=True)
class Subset:
    """An ordered multi-pick from a pool (e.g. the accelerator mix).

    Values are tuples of pool members in pool order (repeats allowed up
    to ``max_len`` picks).  Shrinking removes one element at a time
    (ddmin over list elements) and then replaces elements with
    earlier-pool ones, so the minimal mix is short *and* simple.
    """

    name: str
    pool: Tuple[str, ...]
    min_len: int = 1
    max_len: int = 3

    def __post_init__(self) -> None:
        if not (1 <= self.min_len <= self.max_len):
            raise ScenarioSpaceError(f"field {self.name!r}: bad length bounds")

    def draw(self, rng: np.random.RandomState) -> Tuple[str, ...]:
        length = int(rng.randint(self.min_len, self.max_len + 1))
        picks = [self.pool[int(rng.randint(len(self.pool)))] for _ in range(length)]
        return tuple(picks)

    def validate(self, value: object) -> bool:
        return (
            isinstance(value, (list, tuple))
            and self.min_len <= len(value) <= self.max_len
            and all(v in self.pool for v in value)
        )

    def shrink_candidates(self, value: Tuple[str, ...]) -> List[Tuple[str, ...]]:
        value = tuple(value)
        seen = {value}
        candidates: List[Tuple[str, ...]] = []

        def offer(candidate: Tuple[str, ...]) -> None:
            if candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)

        if len(value) > self.min_len:
            for drop in range(len(value)):
                offer(value[:drop] + value[drop + 1:])
        for position, member in enumerate(value):
            for simpler in self.pool[: self.pool.index(member)]:
                offer(value[:position] + (simpler,) + value[position + 1:])
        return candidates


Field = object  # Choice | Subset — both satisfy the draw/validate protocol.


# -- kinds -----------------------------------------------------------------------

#: Bound on constrained-random rejection sampling.  Constraints below are
#: loose (most draws satisfy them), so hitting this means the spec is
#: over-constrained — fail loudly instead of looping.
_MAX_DRAW_TRIES = 64


@dataclass(frozen=True)
class ScenarioKind:
    """One differential surface: its fields and draw constraints."""

    name: str
    description: str
    fields: Tuple[Field, ...]
    #: Predicates over the drawn field dict; a draw must satisfy all.
    constraints: Tuple[Callable[[Dict[str, object]], bool], ...] = ()

    def field(self, name: str) -> Field:
        for spec in self.fields:
            if spec.name == name:
                return spec
        raise ScenarioSpaceError(f"kind {self.name!r} has no field {name!r}")

    def draw(self, rng: np.random.RandomState) -> "Scenario":
        for _ in range(_MAX_DRAW_TRIES):
            values = {spec.name: spec.draw(rng) for spec in self.fields}
            if all(constraint(values) for constraint in self.constraints):
                return Scenario(kind=self.name, fields=values)
        raise ScenarioSpaceError(
            f"kind {self.name!r}: no constraint-satisfying draw in "
            f"{_MAX_DRAW_TRIES} tries"
        )

    def validate(self, values: Mapping[str, object]) -> None:
        names = {spec.name for spec in self.fields}
        given = set(values)
        if names != given:
            raise ScenarioSpaceError(
                f"kind {self.name!r}: fields {sorted(given)} != spec "
                f"{sorted(names)}"
            )
        for spec in self.fields:
            if not spec.validate(values[spec.name]):
                raise ScenarioSpaceError(
                    f"kind {self.name!r}: invalid {spec.name}="
                    f"{values[spec.name]!r}"
                )
        for constraint in self.constraints:
            if not constraint(dict(values)):
                raise ScenarioSpaceError(
                    f"kind {self.name!r}: constraint violated by {dict(values)}"
                )


# -- scenarios -------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One point in the space; canonical-JSON serializable, hashable."""

    kind: str
    fields: Mapping[str, object]

    def replace(self, **overrides: object) -> "Scenario":
        values = {**self.fields, **overrides}
        return Scenario(kind=self.kind, fields=values)

    def to_dict(self) -> Dict[str, object]:
        fields: Dict[str, object] = {}
        for name in sorted(self.fields):
            value = self.fields[name]
            fields[name] = list(value) if isinstance(value, tuple) else value
        return {"kind": self.kind, "fields": fields}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Scenario":
        kind_name = str(payload.get("kind"))
        kind = SCENARIO_KINDS.get(kind_name)
        if kind is None:
            raise ScenarioSpaceError(
                f"unknown scenario kind {kind_name!r}; "
                f"kinds: {sorted(SCENARIO_KINDS)}"
            )
        raw = payload.get("fields")
        if not isinstance(raw, Mapping):
            raise ScenarioSpaceError("scenario needs a 'fields' mapping")
        values: Dict[str, object] = {}
        for name, value in raw.items():
            spec = kind.field(str(name))
            values[str(name)] = tuple(value) if isinstance(spec, Subset) else value
        kind.validate(values)
        return cls(kind=kind_name, fields=values)

    def canonical(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def spec(self) -> ScenarioKind:
        return SCENARIO_KINDS[self.kind]


# -- the space -------------------------------------------------------------------
#
# Accelerator pool for single-platform differential runs: latency-bound
# and compute-bound jobs only.  MemBench saturates the links (~20x the
# simulated packet volume per window), which busts the fuzz budget; LL
# and the crypto/DSP streamers exercise the same translation, auditing,
# and mux-tree machinery at a fraction of the event count.
_PLATFORM_ACCELS = ("LL", "AES", "GRN", "FIR")

#: Placement policies, mirroring ``repro.fleet.placement.make_policy``.
_POLICIES = ("first-fit", "best-fit", "affinity")


def _plan_choices(scope: str) -> Tuple[str, ...]:
    """Fault-plan domain for a scenario scope: "none" + registry names.

    Derived from :data:`~repro.faults.plan.FAULT_PLAN_PRESETS` so a newly
    registered preset is fuzzed without touching this module.
    """
    return ("none", *preset_names(scope))


def _platform_window_ok(values: Dict[str, object]) -> bool:
    # Rogue-guest presets schedule events out to ~9 ms; give those plans
    # a window that actually reaches them (plus watchdog deadline slack).
    if values["fault_plan"] in ("rogue-guest", "mixed"):
        return values["window_ms"] == 12
    return values["window_ms"] != 12


def _fleet_targets_exist(values: Dict[str, object]) -> bool:
    nodes = int(values["nodes"])
    if int(values["autoscale_standby"]) >= nodes:
        return False
    if values["drain_node"] != "none":
        index = int(str(values["drain_node"])[len("node"):])
        if index >= nodes:
            return False
    return True


SCENARIO_KINDS: Dict[str, ScenarioKind] = {}


def register_kind(kind: ScenarioKind) -> ScenarioKind:
    if kind.name in SCENARIO_KINDS:
        raise ScenarioSpaceError(f"scenario kind {kind.name!r} already registered")
    SCENARIO_KINDS[kind.name] = kind
    return kind


register_kind(ScenarioKind(
    name="platform",
    description="one OPTIMUS chaos stack vs an in-process repeat of it",
    fields=(
        Subset("accels", pool=_PLATFORM_ACCELS, min_len=1, max_len=3),
        Choice("working_set_mb", (2, 4, 8)),
        Choice("window_ms", (3, 6, 12)),
        # Scheduler quantum in us: the paper's 10 ms default, plus the
        # fine-grained slice the chaos tests use — quarantine latency is
        # queueing (one slice) + detection (watchdog deadlines), so only
        # the short slice makes hang-liveness assertable in a 12 ms window.
        Choice("time_slice_us", (10_000, 50)),
        Choice("page_size", (PAGE_SIZE_2M, PAGE_SIZE_4K)),
        # False removes the inter-slice guard gap: consecutive IOVA
        # slices alias the same IOTLB sets (the paper's §5 conflict).
        Choice("conflict_mitigation", (True, False)),
        Choice("speculative_region_opt", (True, False)),
        Choice("fault_plan", _plan_choices("single")),
    ),
    constraints=(_platform_window_ok,),
))

register_kind(ScenarioKind(
    name="burst",
    description="pass-through burst datapath, fast-path governor vs "
    "reference per-line packets",
    fields=(
        Choice("data_kb", (64, 128, 256)),
        Choice("page_size", (PAGE_SIZE_2M, PAGE_SIZE_4K)),
        # True forces the governor to decline every burst (§6.5): the
        # split path must still be bit-identical to the reference.
        Choice("speculative_region_opt", (False, True)),
        # Demand knob: 4 B/cycle is compute-bound (bursts commit), 16 is
        # bandwidth-bound (the pipeline rarely drains enough to commit).
        Choice("bytes_per_cycle", (4, 8, 16)),
        Choice("tile_lines", (32, 64)),
        Choice("prefetch_tiles", (1, 2)),
        Choice("pattern_seed", (1, 2, 3)),
    ),
))

register_kind(ScenarioKind(
    name="fleet",
    description="fleet serving loop, serial vs sharded execution",
    fields=(
        Choice("nodes", (2, 3, 4)),
        Choice("requests", (24, 40, 60)),
        Choice("load", (0.7, 0.9, 1.3)),
        Choice("policy", _POLICIES),
        Choice("traffic_seed", (1, 2, 3, 4, 5)),
        Choice("fault_plan", _plan_choices("fleet")),
        Choice("autoscale_standby", (0, 1)),
        Choice("drain_node", ("none", "node1")),
        Choice("drain_at_ms", (2, 4)),
        # Speculative-lookahead depth of the sharded arm (0 = the
        # conservative per-epoch protocol).  Results must be identical
        # at any depth, so fuzzing it differentially covers the grant /
        # commit / rollback machinery against every drawn fault plan,
        # drain, and autoscale combination.
        Choice("lookahead", (0, 2, 8)),
    ),
    constraints=(_fleet_targets_exist,),
))

register_kind(ScenarioKind(
    name="serve",
    description="session-trace gateway, serial vs sharded execution",
    fields=(
        Choice("sessions", (80, 150, 300)),
        Choice("load", (0.8, 1.2, 2.0)),
        Choice("followup", (0.0, 0.3)),
        Choice("diurnal", (0.0, 0.5)),
        Choice("burst", (0.0, 0.1)),
        Choice("nodes", (2, 3)),
        Choice("admission", ("queue-depth", "slo-budget")),
        Choice("trace_seed", (1, 2, 3)),
    ),
))

register_kind(ScenarioKind(
    name="capacity",
    description="capacity planner, analytic closed form vs fleet DES",
    fields=(
        Choice("tenants", (500, 1500, 3000)),
        Choice("nodes", (2, 4, 8)),
        # The first loads sit below the oversubscription ceiling, where
        # the analytic engine must equal the DES bit for bit; 4.8 lands
        # in the fluid regime, where only the property checks apply.
        Choice("load", (0.4, 0.6, 0.9, 1.5, 4.8)),
        Choice("seed", (3, 7, 11)),
        Choice("mean_session_ms", (10, 20)),
    ),
))


def kind_names() -> List[str]:
    return sorted(SCENARIO_KINDS)


def resolve_kinds(spec: Optional[str]) -> List[str]:
    """Parse a ``--kinds`` comma list; ``None``/empty means all kinds."""
    if not spec:
        return kind_names()
    names = [name.strip() for name in spec.split(",") if name.strip()]
    for name in names:
        if name not in SCENARIO_KINDS:
            raise ScenarioSpaceError(
                f"unknown scenario kind {name!r}; kinds: {kind_names()}"
            )
    return names
