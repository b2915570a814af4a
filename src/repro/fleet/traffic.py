"""Deterministic open-loop tenant traffic for the fleet.

Requests arrive according to a seeded Poisson process whose rate is
expressed as *offered load*: the fraction of the fleet's sustainable
spatial placement rate.  With ``S`` physical slots and a mean session of
``T`` seconds, the fleet can hold ``S`` concurrent tenants, i.e. sustain
``S / T`` placements per second at full spatial occupancy; ``load=0.9``
offers 90% of that, ``load=2.0`` is a 2x overload that admission control
must absorb.  Accelerator types are drawn from a weighted mix and session
lifetimes from an exponential distribution.

Everything is driven by one :class:`~repro.sim.rng.LegacyRandomState`
``(seed)`` — the draws of ``numpy.random.RandomState(seed)`` without
importing numpy — in a single pass (the same discipline as
:mod:`repro.workloads.datagen`), so a seed fully determines the request
stream — and therefore, policies being deterministic, the fleet's entire
placement trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sim.clock import ms
from repro.sim.rng import LegacyRandomState, choice_cdf

#: Default accelerator mix: streaming crypto/DSP heavy, with a tail of
#: microbenchmark tenants — all types the default node templates offer.
DEFAULT_MIX: Dict[str, float] = {
    "AES": 0.25,
    "SHA": 0.2,
    "MD5": 0.15,
    "FIR": 0.15,
    "MB": 0.15,
    "LL": 0.1,
}


@dataclass(frozen=True)
class TenantRequest:
    """One tenant asking for one accelerator for one session.

    ``tenant_class`` names the SLO class the tenant belongs to (see
    :mod:`repro.serve.slo`); the default keeps batch traffic classless.
    """

    request_id: int
    tenant: str
    accel_type: str
    arrival_ps: int
    session_ps: int
    tenant_class: str = "default"


@dataclass(frozen=True)
class TrafficProfile:
    """Shape of the offered traffic, independent of fleet size."""

    load: float = 0.9  # fraction of the fleet's sustainable placement rate
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    mean_session_ps: int = ms(20)
    #: Optional SLO-class mix (e.g. ``{"gold": .2, "silver": .3,
    #: "bronze": .5}``).  ``None`` keeps every request in the classless
    #: ``"default"`` class AND keeps the RNG stream byte-identical to
    #: profiles that predate this field: class picks are drawn *after*
    #: the gap/type/session draws, so enabling classes never perturbs
    #: arrival times, accelerator types, or session lengths.
    class_mix: Optional[Dict[str, float]] = None

    min_session_ps: ClassVar[int] = ms(1)

    def __post_init__(self) -> None:
        if self.load <= 0:
            raise ConfigurationError("offered load must be positive")
        if not self.mix or any(w <= 0 for w in self.mix.values()):
            raise ConfigurationError("traffic mix needs positive weights")
        if self.mean_session_ps < self.min_session_ps:
            raise ConfigurationError("invalid session lifetime parameters")
        if self.class_mix is not None and (
            not self.class_mix or any(w <= 0 for w in self.class_mix.values())
        ):
            raise ConfigurationError("class mix needs positive weights")


class TrafficGenerator:
    """Seeded generator of open-loop request streams."""

    def __init__(
        self,
        profile: TrafficProfile,
        *,
        fleet_slots: int,
        seed: int = 0,
    ) -> None:
        if fleet_slots < 1:
            raise ConfigurationError("fleet must have at least one slot")
        self.profile = profile
        self.fleet_slots = fleet_slots
        self.seed = seed

    @property
    def mean_interarrival_ps(self) -> float:
        """Open-loop spacing for the profile's offered load."""
        sustainable_rate = self.fleet_slots / self.profile.mean_session_ps
        return 1.0 / (sustainable_rate * self.profile.load)

    def generate(self, count: int) -> List[TenantRequest]:
        """``count`` requests, bit-for-bit stable for a given seed."""
        if count < 1:
            raise ConfigurationError("request count must be positive")
        rng = LegacyRandomState(self.seed)
        types = sorted(self.profile.mix)
        type_cdf = choice_cdf([self.profile.mix[t] for t in types])
        gaps = [rng.exponential(self.mean_interarrival_ps) for _ in range(count)]
        picks = [rng.pick(type_cdf) for _ in range(count)]
        sessions = [
            rng.exponential(self.profile.mean_session_ps) for _ in range(count)
        ]
        # Class picks come strictly *after* the legacy draws.
        class_mix = self.profile.class_mix
        if class_mix is None:
            classes = ["default"]
            class_picks = [0] * count
        else:
            classes = sorted(class_mix)
            class_cdf = choice_cdf([class_mix[c] for c in classes])
            class_picks = [rng.pick(class_cdf) for _ in range(count)]

        requests: List[TenantRequest] = []
        now = 0
        for index in range(count):
            now += max(1, int(round(gaps[index])))
            session = max(self.profile.min_session_ps, int(round(sessions[index])))
            requests.append(
                TenantRequest(
                    request_id=index,
                    tenant=f"t{index:05d}",
                    accel_type=types[picks[index]],
                    arrival_ps=now,
                    session_ps=session,
                    tenant_class=classes[class_picks[index]],
                )
            )
        return requests

    def generate_arrays(self, count: int) -> Dict[str, object]:
        """The same request stream as :meth:`generate`, as numpy arrays.

        The analytic capacity model (:mod:`repro.analytic.capacity`)
        consumes the raw arrays instead of 10^6 ``TenantRequest``
        objects.  Draw order and rounding match :meth:`generate` exactly
        — ``numpy.rint`` and Python's ``round`` both round half to even
        — so ``generate(n)[i]`` equals row ``i`` of these arrays (a
        property ``tests/test_capacity.py`` asserts).

        Returns ``{"arrival_ps", "type_index", "session_ps",
        "class_index", "types", "classes"}``; ``class_index`` is all
        zeros and ``classes == ["default"]`` when the profile carries no
        class mix.
        """
        if count < 1:
            raise ConfigurationError("request count must be positive")
        import numpy as np

        rng = np.random.RandomState(self.seed)
        types = sorted(self.profile.mix)
        weights = np.array([self.profile.mix[t] for t in types], dtype=float)
        gaps = rng.exponential(self.mean_interarrival_ps, size=count)
        picks = rng.choice(len(types), size=count, p=weights / weights.sum())
        sessions = rng.exponential(self.profile.mean_session_ps, size=count)
        class_mix = self.profile.class_mix
        if class_mix is None:
            classes = ["default"]
            class_picks = np.zeros(count, dtype=np.int64)
        else:
            classes = sorted(class_mix)
            weights = np.array([class_mix[c] for c in classes], dtype=float)
            class_picks = rng.choice(
                len(classes), size=count, p=weights / weights.sum()
            )
        arrival = np.cumsum(
            np.maximum(1, np.rint(gaps).astype(np.int64)), dtype=np.int64
        )
        session = np.maximum(
            self.profile.min_session_ps, np.rint(sessions).astype(np.int64)
        )
        return {
            "arrival_ps": arrival,
            "type_index": picks.astype(np.int64),
            "session_ps": session,
            "class_index": class_picks.astype(np.int64),
            "types": types,
            "classes": classes,
        }
