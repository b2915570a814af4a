"""Fleet-scale capacity planning: analytic fast-forward vs the DES.

The fleet DES (:class:`repro.fleet.admission.FleetService`) simulates
every tenant request through real per-node stacks — faithful, but
wall-clock-bound at ~10^5 requests no matter how many shards run on one
CPU.  This module exploits a structural fact of that loop: **admission
aggregates exactly to per-type capacity**.  A request of type ``t`` is
placeable iff fleet-wide occupancy of ``t`` is below ``max_oversub x
(physical slots of t)``; which node/slot it lands on changes the trace,
never the latency or the outcome.  Cross-type coupling exists only
through the shared bounded queue.  The capacity planner therefore never
builds a node:

* **exact mode** — while no type's occupancy ever reaches its ceiling,
  the DES trajectory is computed in closed form from the (seeded) traffic
  arrays: every request places immediately at the placement cost.  A
  vectorized peak-occupancy scan proves the condition; 10^6 tenants over
  a week of simulated time cost one ``numpy`` sort.
* **fluid mode** — under contention, a bucketed fluid model with a
  diffusion correction marches expected per-type occupancy, the shared
  FIFO queue (aged in buckets, capped at ``queue_limit``, expired at the
  retry-ladder horizon), and the placed-latency mass distribution.  The
  diffusion term (occupancy ~ Normal(n, n)) is what lets a *mean*-field
  model reproduce the stochastic blocking the DES shows below nominal
  saturation.

Outputs are a canonical-JSON-able envelope: placements, typed
rejections, latency mean/p50/p99 with bootstrap confidence intervals,
per-class SLO attainment (classes ride the latency mixture — admission
is class-blind, a fact the DES comparator verifies), per-type
utilization, and optionally calibrated goodput.  ``capacity_des`` runs
the real :class:`FleetService` on the identical seeded traffic and emits
the same envelope shape, so cross-validation compares like with like.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analytic.calibration import (
    CalibrationStore,
    CellSpec,
    SUPPORTED_BENCHMARKS,
    LATENCY_BENCHMARKS,
    default_store,
)
from repro.errors import ConfigurationError
from repro.fleet.admission import (
    AdmissionConfig,
    DEFAULT_PLACEMENT_COST_PS,
    FleetObserver,
    FleetService,
)
from repro.fleet.cluster import DEFAULT_TEMPLATES, FleetCluster
from repro.fleet.node import DEFAULT_MAX_OVERSUB
from repro.fleet.placement import make_policy
from repro.fleet.traffic import DEFAULT_MIX, TrafficGenerator, TrafficProfile
from repro.mem import MB
from repro.serve.slo import capacity_classes
from repro.serve.trace import DEFAULT_CLASS_MIX
from repro.sim.clock import ms, us

#: Stack modes the capacity planner can serve (derived from the stack
#: registry, minus pass-through: a single unvirtualized accelerator has
#: no fleet to plan).
def capacity_modes() -> Tuple[str, ...]:
    from repro.experiments.harness import STACK_MODES

    return tuple(mode for mode in STACK_MODES if mode != "passthrough")


#: Fluid-model resolution limits: bucket count is capped so week-long
#: horizons widen the bucket instead of exhausting memory/time.
MAX_BUCKETS = 400_000


@dataclass(frozen=True)
class CapacityConfig:
    """One capacity-planning scenario, shared by both backends."""

    tenants: int = 100_000
    nodes: int = 8
    load: float = 1.2
    seed: int = 7
    mean_session_ps: int = ms(20)
    horizon_ps: int = 0  # 0 -> serve the whole trace
    max_oversub: int = DEFAULT_MAX_OVERSUB
    queue_limit: int = 32
    max_retries: int = 3
    backoff_ps: int = ms(2)
    backoff_factor: float = 2.0
    placement_cost_ps: int = DEFAULT_PLACEMENT_COST_PS
    policy: str = "best-fit"
    bootstrap: int = 200
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    class_mix: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_MIX)
    )

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.nodes < 1:
            raise ConfigurationError("tenants and nodes must be positive")
        if self.horizon_ps < 0:
            raise ConfigurationError("horizon must be >= 0")
        if self.bootstrap < 0:
            raise ConfigurationError("bootstrap resamples must be >= 0")

    def profile(self) -> TrafficProfile:
        return TrafficProfile(
            load=self.load,
            mix=dict(self.mix),
            mean_session_ps=self.mean_session_ps,
            class_mix=dict(self.class_mix),
        )

    def admission(self) -> AdmissionConfig:
        return AdmissionConfig(
            queue_limit=self.queue_limit,
            max_retries=self.max_retries,
            backoff_ps=self.backoff_ps,
            backoff_factor=self.backoff_factor,
            placement_cost_ps=self.placement_cost_ps,
        )

    def ladder_ps(self) -> int:
        """Longest wait before ``retries_exhausted``: the backoff sum."""
        return sum(
            int(self.backoff_ps * self.backoff_factor ** k)
            for k in range(self.max_retries)
        )

    def payload(self) -> Dict[str, object]:
        return asdict(self)


def slot_capacity(
    n_nodes: int, templates=DEFAULT_TEMPLATES
) -> Dict[str, int]:
    """Physical slots per type for ``FleetCluster.build(n_nodes)`` —
    the same template cycling, without synthesizing a single node."""
    caps: Dict[str, int] = {}
    for index in range(n_nodes):
        for slot_type in templates[index % len(templates)]:
            caps[slot_type] = caps.get(slot_type, 0) + 1
    return dict(sorted(caps.items()))


# -- weighted latency distributions -------------------------------------------------


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> int:
    """``ceil(q * n)`` rank rule over a weighted sample, matching
    :meth:`repro.sim.stats.LatencyRecorder.quantile_ps`."""
    total = float(weights.sum())
    if total <= 0:
        return 0
    rank = min(total, max(0.0, math.ceil(q * total * (1 - 1e-12))))
    cum = np.cumsum(weights)
    index = int(np.searchsorted(cum, rank - 1e-9))
    return int(values[min(index, len(values) - 1)])


def _bootstrap_cis(
    values: np.ndarray,
    weights: np.ndarray,
    *,
    rounds: int,
    seed: int,
    budgets: Dict[str, int],
) -> Dict[str, object]:
    """Seeded multinomial bootstrap over a weighted latency distribution.

    Returns 95% CIs for the mean, the p99, and each class's attainment.
    Classes are i.i.d. labels over the same mixture, so their attainment
    uncertainty is the budget-threshold mass uncertainty.
    """
    total = int(round(float(weights.sum())))
    if total <= 0 or rounds <= 0:
        return {}
    rng = np.random.RandomState(0xB007 ^ (seed & 0xFFFFFFFF))
    p = weights / weights.sum()
    counts = rng.multinomial(total, p, size=rounds).astype(np.float64)
    means = counts @ values / total
    cum = np.cumsum(counts, axis=1)
    rank = math.ceil(0.99 * total)
    p99_idx = np.argmax(cum >= rank, axis=1)
    p99s = values[p99_idx]
    out: Dict[str, object] = {
        "mean_ps": [float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))],
        "p99_ps": [float(np.percentile(p99s, 2.5)), float(np.percentile(p99s, 97.5))],
        "attainment": {},
    }
    for name, budget in sorted(budgets.items()):
        mask = values <= budget
        att = counts[:, mask].sum(axis=1) / total
        out["attainment"][name] = [
            float(np.percentile(att, 2.5)),
            float(np.percentile(att, 97.5)),
        ]
    return out


def _latency_block(
    values: np.ndarray, weights: np.ndarray, *, bootstrap: int, seed: int,
    budgets: Dict[str, int],
) -> Tuple[Dict[str, object], Dict[str, object], Dict[str, float]]:
    """(latency summary, bootstrap CIs, attainment-by-class)."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    keep = weights > 0
    values, weights = values[keep], weights[keep]
    total = float(weights.sum())
    if total <= 0:
        return {"mean": 0.0, "p50": 0, "p99": 0}, {}, {
            name: 1.0 for name in budgets
        }
    summary = {
        "mean": float((values * weights).sum() / total),
        "p50": _weighted_quantile(values, weights, 0.50),
        "p99": _weighted_quantile(values, weights, 0.99),
    }
    attainment = {
        name: float(weights[values <= budget].sum() / total)
        for name, budget in sorted(budgets.items())
    }
    cis = _bootstrap_cis(
        values, weights, rounds=bootstrap, seed=seed, budgets=budgets
    )
    return summary, cis, attainment


# -- the analytic planner ------------------------------------------------------------


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _exact_peaks(
    arrival: np.ndarray,
    depart: np.ndarray,
    type_index: np.ndarray,
    n_types: int,
) -> List[int]:
    """Peak concurrent occupancy per type, vectorized.

    Arrivals sort before departures at equal timestamps — the serving
    heap pushes the whole arrival trace first, so at a tie the arriving
    request sees occupancy *before* the departure frees it.
    """
    peaks: List[int] = []
    for t in range(n_types):
        mask = type_index == t
        count = int(mask.sum())
        if count == 0:
            peaks.append(0)
            continue
        times = np.concatenate([arrival[mask], depart[mask]])
        flags = np.concatenate(
            [np.zeros(count, dtype=np.int8), np.ones(count, dtype=np.int8)]
        )
        deltas = np.concatenate(
            [np.ones(count, dtype=np.int32), -np.ones(count, dtype=np.int32)]
        )
        order = np.lexsort((flags, times))
        peaks.append(int(np.cumsum(deltas[order]).max()))
    return peaks


def plan_capacity(
    config: CapacityConfig,
    *,
    calibration: Optional[CalibrationStore] = None,
    goodput: bool = False,
) -> Dict[str, object]:
    """The analytic capacity plan: exact where provable, fluid elsewhere."""
    caps = slot_capacity(config.nodes)
    ceilings = {t: caps[t] * config.max_oversub for t in caps}
    total_slots = sum(caps.values())
    generator = TrafficGenerator(
        config.profile(), fleet_slots=total_slots, seed=config.seed
    )
    arrays = generator.generate_arrays(config.tenants)
    arrival = arrays["arrival_ps"]
    type_index = arrays["type_index"]
    session = arrays["session_ps"]
    types: List[str] = arrays["types"]
    if config.horizon_ps:
        keep = arrival <= config.horizon_ps
        arrival, type_index, session = arrival[keep], type_index[keep], session[keep]
    offered = int(arrival.size)
    if offered == 0:
        raise ConfigurationError("horizon excludes every arrival")

    supported = np.array([t in ceilings for t in types], dtype=bool)
    request_supported = supported[type_index]
    unsupported = int((~request_supported).sum())
    arrival_s = arrival[request_supported]
    type_s = type_index[request_supported]
    session_s = session[request_supported]

    cost = config.placement_cost_ps
    budgets = {
        name: cls.budget_ps for name, cls in capacity_classes().items()
        if name in config.class_mix
    }
    shares = _normalized_shares(config.class_mix)

    depart = arrival_s + cost + session_s
    peaks = _exact_peaks(arrival_s, depart, type_s, len(types))
    contended = any(
        types[t] in ceilings and peaks[t] > ceilings[types[t]]
        for t in range(len(types))
    )

    if not contended:
        engine = "exact"
        placements = float(arrival_s.size)
        rejections = {"queue_full": 0.0, "retries_exhausted": 0.0}
        values = np.array([cost], dtype=np.float64)
        weights = np.array([placements], dtype=np.float64)
        occupancy_integral = {
            types[t]: float((cost + session_s[type_s == t]).sum())
            for t in range(len(types))
            if types[t] in ceilings
        }
        span_ps = int(depart.max()) if depart.size else 0
    else:
        engine = "fluid"
        fluid = _fluid_march(
            config, arrival_s, type_s, session_s, types, ceilings
        )
        placements = fluid["placements"]
        rejections = fluid["rejections"]
        values = fluid["latency_values"]
        weights = fluid["latency_weights"]
        occupancy_integral = fluid["occupancy_integral"]
        span_ps = fluid["span_ps"]

    latency, cis, attainment = _latency_block(
        values, weights, bootstrap=config.bootstrap, seed=config.seed,
        budgets=budgets,
    )
    rejected_total = unsupported + sum(rejections.values())
    utilization = {
        t: occupancy_integral.get(t, 0.0) / (span_ps * caps[t]) if span_ps else 0.0
        for t in sorted(caps)
    }

    store = calibration if calibration is not None else default_store()
    goodput_by_type: Dict[str, float] = {}
    if goodput:
        goodput_by_type = _calibrated_goodput(store, caps, utilization)

    classes = {
        name: {
            "budget_ps": budgets[name],
            "share": shares[name],
            "attainment": attainment.get(name, 1.0),
            "attainment_ci95": (cis.get("attainment") or {}).get(name, []),
            "expected_placed": placements * shares[name],
        }
        for name in sorted(shares)
    }
    return {
        "mode": "analytic",
        "engine": engine,
        "config": config.payload(),
        "requests": offered,
        "placements": placements,
        "rejections": {
            "queue_full": rejections["queue_full"],
            "retries_exhausted": rejections["retries_exhausted"],
            "unsupported": float(unsupported),
        },
        "rejection_rate": rejected_total / offered,
        "latency_ps": latency,
        "latency_ci95_ps": {k: v for k, v in cis.items() if k != "attainment"},
        "classes": classes,
        "utilization_by_type": utilization,
        "goodput_gbps_by_type": goodput_by_type,
        "calibration_digest": store.digest(),
        "span_ps": span_ps,
        "horizon_ps": config.horizon_ps,
    }


def _normalized_shares(class_mix: Dict[str, float]) -> Dict[str, float]:
    total = sum(class_mix.values())
    return {name: weight / total for name, weight in sorted(class_mix.items())}


def _fluid_march(
    config: CapacityConfig,
    arrival: np.ndarray,
    type_index: np.ndarray,
    session: np.ndarray,
    types: List[str],
    ceilings: Dict[str, int],
) -> Dict[str, object]:
    """The bucketed fluid/diffusion model over the contended trace."""
    ladder_ps = config.ladder_ps()
    delta = max(us(50), min(config.backoff_ps // 4, config.mean_session_ps // 16))
    span_ps = int(arrival.max()) + ladder_ps + 4 * config.mean_session_ps
    if span_ps // delta + 2 > MAX_BUCKETS:
        delta = span_ps // MAX_BUCKETS + 1
    n_buckets = int(span_ps // delta) + 2
    max_age = max(1, int(math.ceil(ladder_ps / delta)))

    active = [t for t in range(len(types)) if types[t] in ceilings]
    arr_counts: Dict[int, List[float]] = {}
    mean_session: Dict[int, float] = {}
    p_complete: Dict[int, float] = {}
    for t in active:
        mask = type_index == t
        arr_counts[t] = np.bincount(
            (arrival[mask] // delta).astype(np.int64), minlength=n_buckets
        ).astype(np.float64).tolist()
        mean_t = float(session[mask].mean()) if mask.any() else float(
            config.mean_session_ps
        )
        mean_session[t] = mean_t + config.placement_cost_ps
        p_complete[t] = 1.0 - math.exp(-delta / mean_session[t])

    n: Dict[int, float] = {t: 0.0 for t in active}
    queues: Dict[int, deque] = {t: deque([0.0] * (max_age + 1)) for t in active}
    qsum: Dict[int, float] = {t: 0.0 for t in active}
    occ_int: Dict[int, float] = {t: 0.0 for t in active}
    ceiling: Dict[int, float] = {t: float(ceilings[types[t]]) for t in active}

    immediate_mass = 0.0
    age_mass = [0.0] * (max_age + 2)
    reject_queue_full = 0.0
    reject_expired = 0.0
    queue_total = 0.0
    pending_push: Dict[int, float] = {}

    for bucket in range(n_buckets):
        pending_push.clear()
        for t in active:
            nt = n[t]
            if nt > 1e-12:
                nt -= nt * p_complete[t]
            arrivals = arr_counts[t][bucket]
            if qsum[t] <= 1e-12 and arrivals <= 0.0:
                n[t] = nt
                occ_int[t] += nt
                continue
            cap = ceiling[t]
            # Drain the FIFO queue (oldest age first) into hard headroom:
            # between departures the DES re-places queued work at every
            # drain, so within one bucket the queue sees the full mean
            # free capacity.
            if qsum[t] > 1e-12:
                take = min(qsum[t], max(0.0, cap - nt))
                if take > 1e-12:
                    queue = queues[t]
                    drained = take
                    for age in range(len(queue) - 1, -1, -1):
                        mass = queue[age]
                        if mass <= 0.0:
                            continue
                        grab = mass if mass <= take else take
                        queue[age] = mass - grab
                        age_mass[age] += grab
                        take -= grab
                        if take <= 1e-12:
                            break
                    placed = drained - max(0.0, take)
                    qsum[t] -= placed
                    queue_total -= placed
                    nt += placed
            if arrivals > 0.0:
                headroom = cap - nt
                if headroom <= 0.0:
                    admitted = 0.0
                else:
                    # Diffusion split: the fluid mean hides occupancy
                    # fluctuations; an arrival is blocked with P(N >=
                    # cap) under N ~ Normal(nt, var).  Variance is
                    # binomial, not Poisson — the ceiling regulates the
                    # process, so fluctuations shrink as nt approaches
                    # cap (floored so the split never fully vanishes).
                    var = nt * max(0.05, 1.0 - nt / cap)
                    sigma = math.sqrt(var) if var > 1.0 else 1.0
                    admitted = min(arrivals * _phi(headroom / sigma), headroom)
                immediate_mass += admitted
                nt += admitted
                leftover = arrivals - admitted
                if leftover > 1e-12:
                    pending_push[t] = leftover
            n[t] = nt
            occ_int[t] += nt
        if pending_push:
            wanted = sum(pending_push.values())
            room = max(0.0, config.queue_limit - queue_total)
            fraction = 1.0 if wanted <= room else room / wanted
            for t, mass in pending_push.items():
                queued = mass * fraction
                if queued > 0.0:
                    queues[t][0] += queued
                    qsum[t] += queued
                    queue_total += queued
                reject_queue_full += mass - queued
        if queue_total > 1e-12:
            for t in active:
                if qsum[t] <= 1e-12:
                    continue
                queue = queues[t]
                expired = queue.pop()
                queue.appendleft(0.0)
                if expired > 0.0:
                    reject_expired += expired
                    qsum[t] -= expired
                    queue_total -= expired

    cost = config.placement_cost_ps
    values: List[float] = [float(cost)]
    weights: List[float] = [immediate_mass]
    for age, mass in enumerate(age_mass):
        if mass > 0.0:
            # Drains run at the head of a bucket: mass at age k waited
            # between (k-1) and k buckets, so the midpoint is (k - 1/2).
            values.append(float(max(age - 0.5, 0.5) * delta + cost))
            weights.append(mass)
    return {
        "placements": immediate_mass + sum(age_mass),
        "rejections": {
            "queue_full": reject_queue_full,
            "retries_exhausted": reject_expired,
        },
        "latency_values": np.array(values, dtype=np.float64),
        "latency_weights": np.array(weights, dtype=np.float64),
        "occupancy_integral": {
            types[t]: occ_int[t] * delta for t in active
        },
        "span_ps": n_buckets * delta,
        "delta_ps": delta,
    }


def _calibrated_goodput(
    store: CalibrationStore,
    caps: Dict[str, int],
    utilization: Dict[str, float],
) -> Dict[str, float]:
    """Fleet goodput per type from calibrated per-slot throughput.

    A time-multiplexed slot delivers roughly one job's calibrated rate
    regardless of oversubscription depth (the hypervisor slices time,
    not bandwidth), so goodput = busy-slot fraction x slots x GB/s.
    Latency-kind benchmarks (LL) have no byte rate and are omitted.
    """
    out: Dict[str, float] = {}
    for accel_type, slots in sorted(caps.items()):
        if (
            accel_type not in SUPPORTED_BENCHMARKS
            or accel_type in LATENCY_BENCHMARKS
        ):
            continue
        stats = store.get_or_calibrate(
            CellSpec(
                benchmark=accel_type,
                working_set=16 * MB,
                contention=1,
                warmup_us=60,
                window_us=100,
            )
        )
        busy = min(1.0, utilization.get(accel_type, 0.0))
        out[accel_type] = busy * slots * stats.gbps_per_job
    return out


# -- the DES comparator --------------------------------------------------------------


class _PlacementLatencies(FleetObserver):
    """Observer recording every fresh placement's latency, and per class."""

    def __init__(self) -> None:
        self.all: List[int] = []
        self.by_class: Dict[str, List[int]] = {}

    def on_placed(self, request, now, latency_ps, replaced) -> None:
        if not replaced:
            self.all.append(latency_ps)
            self.by_class.setdefault(request.tenant_class, []).append(latency_ps)


def capacity_des(
    config: CapacityConfig,
    *,
    calibration: Optional[CalibrationStore] = None,
    goodput: bool = False,
) -> Dict[str, object]:
    """The reference answer: the real fleet DES on the identical traffic."""
    cluster = FleetCluster.build(config.nodes, max_oversub=config.max_oversub)
    generator = TrafficGenerator(
        config.profile(), fleet_slots=cluster.total_slots, seed=config.seed
    )
    requests = generator.generate(config.tenants)
    if config.horizon_ps:
        requests = [r for r in requests if r.arrival_ps <= config.horizon_ps]
    if not requests:
        raise ConfigurationError("horizon excludes every arrival")
    placed = _PlacementLatencies()
    service = FleetService(
        cluster, make_policy(config.policy), admission=config.admission(),
        observer=placed,
    )
    result = service.serve(requests)
    summary = result.summary()

    budgets = {
        name: cls.budget_ps for name, cls in capacity_classes().items()
        if name in config.class_mix
    }
    shares = _normalized_shares(config.class_mix)
    values = np.array(placed.all, dtype=np.float64)
    weights = np.ones_like(values)
    latency, cis, _ = _latency_block(
        values, weights, bootstrap=config.bootstrap, seed=config.seed,
        budgets=budgets,
    )
    classes = {}
    for name in sorted(shares):
        samples = placed.by_class.get(name, [])
        attained = (
            sum(1 for s in samples if s <= budgets[name]) / len(samples)
            if samples
            else 1.0
        )
        classes[name] = {
            "budget_ps": budgets[name],
            "share": shares[name],
            "attainment": attained,
            "attainment_ci95": (cis.get("attainment") or {}).get(name, []),
            "expected_placed": float(len(samples)),
        }

    caps = slot_capacity(config.nodes)
    store = calibration if calibration is not None else default_store()
    # FleetMetrics already reports tenant-time per physical slot-time,
    # the same normalization the analytic envelope uses.
    utilization = dict(summary["utilization_by_type"])
    goodput_by_type = (
        _calibrated_goodput(store, caps, utilization) if goodput else {}
    )
    return {
        "mode": "optimus",
        "engine": "des",
        "config": config.payload(),
        "requests": result.requests,
        "placements": float(summary["placements"]),
        "rejections": {
            "queue_full": float(summary["rejections_queue_full"]),
            "retries_exhausted": float(summary["rejections_retries_exhausted"]),
            "unsupported": float(summary["rejections_unsupported"]),
        },
        "rejection_rate": float(summary["rejection_rate"]),
        "latency_ps": latency,
        "latency_ci95_ps": {k: v for k, v in cis.items() if k != "attainment"},
        "classes": classes,
        "utilization_by_type": utilization,
        "goodput_gbps_by_type": goodput_by_type,
        "calibration_digest": store.digest(),
        "span_ps": result.span_ps,
        "horizon_ps": config.horizon_ps,
    }


def run_capacity(
    mode: str,
    config: CapacityConfig,
    *,
    calibration: Optional[CalibrationStore] = None,
    goodput: bool = False,
) -> Dict[str, object]:
    """Mode dispatch for the CLI and experiments (single-sourced modes)."""
    modes = capacity_modes()
    if mode == "analytic":
        return plan_capacity(config, calibration=calibration, goodput=goodput)
    if mode == "optimus":
        return capacity_des(config, calibration=calibration, goodput=goodput)
    raise ConfigurationError(
        f"capacity planning supports modes {modes}, got {mode!r}"
    )
