"""Declarative, seeded fault plans.

A :class:`FaultPlan` is the whole chaos contract: a seed plus a list of
timed :class:`FaultEvent` entries.  Replaying the same plan against the
same stack (same traffic seed, same cluster shape) produces a
byte-identical recovery trace — the injector draws every "auto" target
from one :class:`~repro.sim.rng.LegacyRandomState` ``(plan.seed)``
(numpy's legacy ``RandomState`` stream) in event order and touches
nothing else stochastic.

Plans come from three places, all normalized here:

* **presets** (:data:`FAULT_PLAN_PRESETS`) — a typed registry of named
  scenarios used by tests, CI, the scenario fuzzer, and
  ``python -m repro chaos --plan <preset>``; fixed shapes and the
  builders (:func:`build_crash_plan`, :func:`build_degrade_crash_plan`)
  with their arguments bound register through the same
  :func:`register_preset` door, so the CLI choices and the fuzzer's
  enumeration derive from one table (mirroring ``STACK_MODES``);
* **JSON files** (:meth:`FaultPlan.from_file`) — the CLI accepts a path
  wherever it accepts a preset name;
* **builders** (:func:`build_crash_plan`) — callable directly with
  explicit parameters for sweeps such as
  ``experiments/chaos_recovery.py``.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.errors import FaultPlanError
from repro.sim.clock import ms
from repro.sim.rng import LegacyRandomState


class FaultKind(enum.Enum):
    """The fault taxonomy (DESIGN.md §8)."""

    NODE_CRASH = "node_crash"
    NODE_RECOVER = "node_recover"
    LINK_DEGRADE = "link_degrade"
    LINK_RESTORE = "link_restore"
    GUEST_HANG = "guest_hang"
    GUEST_RUNAWAY_DMA = "guest_runaway_dma"
    IOTLB_THRASH = "iotlb_thrash"


_KINDS_BY_VALUE = {kind.value: kind for kind in FaultKind}


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.  ``target`` names a node or tenant; ``"auto"``
    defers the choice to the injector's seeded RNG at apply time."""

    at_ps: int
    kind: FaultKind
    target: str = "auto"
    params: Mapping[str, float] = field(default_factory=dict)

    def param(self, key: str, default: float) -> float:
        return float(self.params.get(key, default))

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "at_ps": self.at_ps,
            "kind": self.kind.value,
            "target": self.target,
        }
        if self.params:
            payload["params"] = {k: self.params[k] for k in sorted(self.params)}
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "FaultEvent":
        """Parse one untrusted event; any malformed shape is a
        :class:`FaultPlanError`, never a raw ``TypeError``/``ValueError``."""
        if not isinstance(payload, Mapping):
            raise FaultPlanError(f"fault event must be an object, got {payload!r}")
        name = payload.get("kind")
        kind = _KINDS_BY_VALUE.get(name) if isinstance(name, str) else None
        if kind is None:
            raise FaultPlanError(
                f"unknown fault kind {name!r}; "
                f"expected one of {sorted(_KINDS_BY_VALUE)}"
            )
        if "at_ps" not in payload:
            raise FaultPlanError("fault event needs an at_ps")
        target = payload.get("target", "auto")
        if not isinstance(target, str):
            raise FaultPlanError(f"fault event target must be a string, got {target!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping) or not all(
            isinstance(key, str) and _is_number(value)
            for key, value in params.items()
        ):
            raise FaultPlanError(
                f"fault event params must map names to finite numbers, got {params!r}"
            )
        return cls(
            at_ps=_integer(payload["at_ps"], "fault event at_ps"),
            kind=kind,
            target=target,
            params=dict(params),
        )


def _is_number(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large to ever become a float
        return False


def _integer(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FaultPlanError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered list of timed fault events."""

    seed: int
    events: Tuple[FaultEvent, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        # The injector seeds numpy's legacy generator, which takes 32 bits.
        if not 0 <= self.seed < 2**32:
            raise FaultPlanError(f"fault plan seed must be in [0, 2**32), got {self.seed}")
        for event in self.events:
            if event.at_ps < 0:
                raise FaultPlanError(f"fault event at negative time: {event}")
        times = [event.at_ps for event in self.events]
        if times != sorted(times):
            raise FaultPlanError("fault events must be sorted by at_ps")

    @classmethod
    def of(cls, events, *, seed: int = 0, name: str = "custom") -> "FaultPlan":
        """Build a plan, sorting events stably by time."""
        ordered = tuple(sorted(events, key=lambda e: e.at_ps))
        return cls(seed=seed, events=ordered, name=name)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: object) -> "FaultPlan":
        """Parse an untrusted plan (a loaded JSON file); any malformed
        shape is a :class:`FaultPlanError`."""
        if not isinstance(payload, Mapping):
            raise FaultPlanError(f"fault plan must be an object, got {payload!r}")
        events = payload.get("events")
        if not isinstance(events, list):
            raise FaultPlanError("fault plan needs an 'events' list")
        name = payload.get("name", "custom")
        if not isinstance(name, str):
            raise FaultPlanError(f"fault plan name must be a string, got {name!r}")
        return cls.of(
            [FaultEvent.from_dict(entry) for entry in events],
            seed=_integer(payload.get("seed", 0), "fault plan seed"),
            name=name,
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultPlanError(f"cannot load fault plan {path!r}: {exc}")
        return cls.from_dict(payload)

    def digest(self) -> str:
        """Stable fingerprint of the full plan (seed included)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(canonical).hexdigest()[:16]


# -- presets ---------------------------------------------------------------------


def _single_node_crash() -> FaultPlan:
    """The acceptance-criteria scenario: node0 dies mid-serve, comes back."""
    return FaultPlan.of(
        [
            FaultEvent(at_ps=ms(10), kind=FaultKind.NODE_CRASH, target="node0"),
            FaultEvent(at_ps=ms(40), kind=FaultKind.NODE_RECOVER, target="node0"),
        ],
        seed=0,
        name="single-node-crash",
    )


def _crash_quick() -> FaultPlan:
    """CI smoke: the same shape, compressed to a few milliseconds.

    ``ms(5)`` lands after the first session wave of the default traffic
    profile, so the crash actually displaces live work.
    """
    return FaultPlan.of(
        [
            FaultEvent(at_ps=ms(5), kind=FaultKind.NODE_CRASH, target="node0"),
            FaultEvent(at_ps=ms(10), kind=FaultKind.NODE_RECOVER, target="node0"),
        ],
        seed=0,
        name="crash-quick",
    )


def _link_flap() -> FaultPlan:
    return FaultPlan.of(
        [
            FaultEvent(at_ps=ms(5), kind=FaultKind.LINK_DEGRADE, target="node0",
                       params={"factor": 8.0}),
            FaultEvent(at_ps=ms(10), kind=FaultKind.LINK_RESTORE, target="node0"),
            FaultEvent(at_ps=ms(15), kind=FaultKind.LINK_DEGRADE, target="node0",
                       params={"factor": 8.0}),
            FaultEvent(at_ps=ms(20), kind=FaultKind.LINK_RESTORE, target="node0"),
        ],
        seed=0,
        name="link-flap",
    )


def _rogue_guest() -> FaultPlan:
    return FaultPlan.of(
        [
            FaultEvent(at_ps=ms(6), kind=FaultKind.GUEST_HANG, target="auto"),
            FaultEvent(at_ps=ms(9), kind=FaultKind.GUEST_RUNAWAY_DMA, target="auto",
                       params={"dmas": 64}),
        ],
        seed=7,
        name="rogue-guest",
    )


def _mixed() -> FaultPlan:
    return FaultPlan.of(
        [
            FaultEvent(at_ps=ms(3), kind=FaultKind.LINK_DEGRADE, target="node0",
                       params={"factor": 4.0}),
            FaultEvent(at_ps=ms(5), kind=FaultKind.GUEST_HANG, target="auto"),
            FaultEvent(at_ps=ms(8), kind=FaultKind.NODE_CRASH, target="node1"),
            FaultEvent(at_ps=ms(12), kind=FaultKind.LINK_RESTORE, target="node0"),
            FaultEvent(at_ps=ms(18), kind=FaultKind.GUEST_RUNAWAY_DMA, target="auto"),
            FaultEvent(at_ps=ms(25), kind=FaultKind.NODE_RECOVER, target="node1"),
            FaultEvent(at_ps=ms(30), kind=FaultKind.IOTLB_THRASH, target="node0",
                       params={"span_ps": ms(5), "factor": 2.0}),
        ],
        seed=11,
        name="mixed",
    )


@dataclass(frozen=True)
class PlanPreset:
    """One registered fault-plan preset.

    ``build()`` returns the plan.  ``scopes`` says where the plan is
    meaningful — ``"fleet"`` (node crashes need a cluster) and/or
    ``"single"`` (guest and link faults against one hypervisor) — which is
    what the scenario fuzzer enumerates when drawing a plan for a given
    scenario kind.
    """

    name: str
    factory: Callable[[], FaultPlan]
    description: str
    scopes: Tuple[str, ...] = ("fleet", "single")

    def build(self) -> FaultPlan:
        return self.factory()


#: The single source of truth for named fault plans.  CLI ``--plan``
#: choices, ``resolve_plan`` error messages, and the scenario fuzzer's
#: plan enumeration all derive from this registry.
FAULT_PLAN_PRESETS: Dict[str, PlanPreset] = {}


def register_preset(preset: PlanPreset) -> PlanPreset:
    """Register a preset; the name must be new (no silent shadowing)."""
    if preset.name in FAULT_PLAN_PRESETS:
        raise FaultPlanError(f"fault-plan preset {preset.name!r} already registered")
    FAULT_PLAN_PRESETS[preset.name] = preset
    return preset


def preset_names(scope: str = "") -> List[str]:
    """Registered preset names, optionally filtered to one scope."""
    return [
        name
        for name, preset in sorted(FAULT_PLAN_PRESETS.items())
        if not scope or scope in preset.scopes
    ]


def resolve_plan(spec: str) -> FaultPlan:
    """A preset name, or a path to a JSON plan file."""
    preset = FAULT_PLAN_PRESETS.get(spec)
    if preset is not None:
        return preset.build()
    if os.path.exists(spec):
        return FaultPlan.from_file(spec)
    raise FaultPlanError(
        f"no fault-plan preset or file {spec!r}; "
        f"presets: {sorted(FAULT_PLAN_PRESETS)}"
    )


# -- builders --------------------------------------------------------------------


def build_crash_plan(
    *,
    n_crashes: int,
    n_nodes: int,
    window_ps: int,
    outage_ps: int,
    seed: int = 0,
) -> FaultPlan:
    """``n_crashes`` node crashes at seeded times inside ``window_ps``,
    each recovering ``outage_ps`` later — the chaos_recovery sweep axis."""
    if n_crashes < 0 or n_nodes < 1 or window_ps <= 0 or outage_ps <= 0:
        raise FaultPlanError("invalid crash-plan parameters")
    rng = LegacyRandomState(seed)
    events: List[FaultEvent] = []
    for _ in range(n_crashes):
        at = rng.randint(1, window_ps)
        node = f"node{rng.randint(n_nodes)}"
        events.append(FaultEvent(at_ps=at, kind=FaultKind.NODE_CRASH, target=node))
        events.append(
            FaultEvent(at_ps=at + outage_ps, kind=FaultKind.NODE_RECOVER, target=node)
        )
    return FaultPlan.of(events, seed=seed, name=f"crash-sweep-{n_crashes}")


def build_degrade_crash_plan(
    *,
    n_faults: int,
    n_nodes: int,
    window_ps: int,
    warning_ps: int,
    outage_ps: int,
    seed: int = 0,
) -> FaultPlan:
    """``n_faults`` failures that *announce themselves*: each target node
    degrades at a seeded time, crashes ``warning_ps`` later, and recovers
    ``outage_ps`` after the crash.

    The degrade→crash gap is the window a proactive control loop (the
    autoscaler's evacuation pass) has to live-migrate residents off the
    sick node before the crash displaces them — the migration_recovery
    experiment measures exactly that race.  A reactive-only baseline run
    of the same plan eats the crash instead.
    """
    if n_faults < 0 or n_nodes < 1 or window_ps <= 0:
        raise FaultPlanError("invalid degrade-crash-plan parameters")
    if warning_ps <= 0 or outage_ps <= 0:
        raise FaultPlanError("warning_ps and outage_ps must be positive")
    rng = LegacyRandomState(seed)
    events: List[FaultEvent] = []
    for _ in range(n_faults):
        at = rng.randint(1, window_ps)
        node = f"node{rng.randint(n_nodes)}"
        events.append(
            FaultEvent(at_ps=at, kind=FaultKind.LINK_DEGRADE, target=node,
                       params={"factor": 4.0})
        )
        events.append(
            FaultEvent(at_ps=at + warning_ps, kind=FaultKind.NODE_CRASH,
                       target=node)
        )
        events.append(
            FaultEvent(at_ps=at + warning_ps + outage_ps,
                       kind=FaultKind.NODE_RECOVER, target=node)
        )
    return FaultPlan.of(events, seed=seed, name=f"degrade-crash-{n_faults}")


# -- registration ----------------------------------------------------------------
#
# Fixed shapes and builders with bound arguments go through the same door; the
# chaos CLI and the scenario fuzzer enumerate this table, never a
# hand-maintained list.

register_preset(PlanPreset(
    name="single-node-crash",
    factory=_single_node_crash,
    description="node0 dies mid-serve, comes back 30 ms later",
    scopes=("fleet",),
))
register_preset(PlanPreset(
    name="crash-quick",
    factory=_crash_quick,
    description="the same crash shape compressed for CI smoke runs",
    scopes=("fleet",),
))
register_preset(PlanPreset(
    name="link-flap",
    factory=_link_flap,
    description="two degrade/restore cycles on the CPU-FPGA links",
))
register_preset(PlanPreset(
    name="rogue-guest",
    factory=_rogue_guest,
    description="a hung guest plus a runaway-DMA guest on seeded slots",
))
register_preset(PlanPreset(
    name="mixed",
    factory=_mixed,
    description="links, rogues, a crash, and an IOTLB thrash interleaved",
))
register_preset(PlanPreset(
    name="crash-sweep",
    factory=functools.partial(
        build_crash_plan,
        n_crashes=2, n_nodes=3, window_ps=ms(20), outage_ps=ms(8), seed=0,
    ),
    description="seeded node crashes inside a window (build_crash_plan)",
    scopes=("fleet",),
))
register_preset(PlanPreset(
    name="degrade-crash",
    factory=functools.partial(
        build_degrade_crash_plan,
        n_faults=1, n_nodes=3, window_ps=ms(10), warning_ps=ms(4),
        outage_ps=ms(8), seed=0,
    ),
    description="degrade-then-crash failures that announce themselves "
    "(build_degrade_crash_plan)",
    scopes=("fleet",),
))
