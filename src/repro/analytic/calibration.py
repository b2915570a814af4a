"""DES-calibrated service-time cells: the analytic backend's ground truth.

The analytic backend (:mod:`repro.analytic.stack`) never guesses what an
accelerator does — it *replays* what the detailed simulator measured.  A
**cell** is one operating point of the platform:

    (benchmark, per-job working set, contention level,
     page size, channel, variant, speculative flag)

Calibrating a cell runs the real OPTIMUS DES once, with the same
conventions the figure experiments use (fig5's steady-state LinkedList
latency samples, fig6's warm-up + window MemBench throughput), and fits a
compact summary: sample count, mean, min/p50/p95/p99/max service-time
quantiles, per-job throughput, plus two derived overhead factors —
**IOTLB pressure** (resident pages over IOTLB entries: > 1 means the
working set thrashes the translation cache) and the **mux-slicing
adder** (tree depth x per-level latency, the paper's ~100 ns).

Artifacts are *canonical JSON* (sorted keys, tight separators — the same
:func:`repro.experiments.cache.canonical_json` every envelope uses),
seeded, and stored through the content-addressed experiment cache when
one is installed: a warm run loads the artifact and skips straight to
the analytic model; editing any simulator source invalidates every cell
via the cache's source-tree digest.  The store's :meth:`digest` is a
stable fingerprint of every cell consulted, and participates in
downstream experiment cache keys so an analytic result can never shadow
a DES result calibrated differently.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.cache import canonical_json, current_cache
from repro.interconnect import VirtualChannel
from repro.mem.iommu import IOTLB_ENTRIES
from repro.platform import PlatformParams
from repro.sim.clock import ms, us

#: Benchmarks whose service metric is a per-access latency distribution.
LATENCY_BENCHMARKS = ("LL",)

#: Benchmarks the analytic backend can replay.  SSSP and BTC report
#: progress in units the byte-rate replay cannot honestly express, so
#: they stay DES-only rather than silently reading as zero.
SUPPORTED_BENCHMARKS = (
    "LL", "MB", "AES", "SHA", "MD5", "FIR", "GRN", "SW", "RSD", "GAU",
    "GRS", "SBL",
)

#: Seeds matching the figure experiments' conventions, so a calibration
#: run of a fig5/fig6 cell is bit-identical to the figure's own DES run.
_LL_SEED = 0x51C0FFEE
_MB_SEED = 0xFEED_BEEF


@dataclass(frozen=True)
class CellSpec:
    """One calibration cell: a benchmark at one platform operating point.

    ``working_set`` is *per job*; ``contention`` is the number of
    concurrent jobs on the node (each on its own physical slot, the
    fig5/fig6 convention).  ``variant`` disambiguates benchmark modes
    (``"read"``/``"write"`` for MB); ``channel`` is the virtual-channel
    value (``"va"``, ``"vl0"``, ``"vh0"``).  ``hops``/``warmup_us``/
    ``window_us`` pin the measurement protocol into the artifact key —
    0 hops means the fig5 auto rule (4x the per-job page count).
    """

    benchmark: str
    working_set: int
    contention: int = 1
    page_size: int = 0  # 0 -> PlatformParams default
    channel: str = "va"
    variant: str = ""
    speculative: bool = True
    hops: int = 0
    warmup_us: int = 400
    window_us: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.benchmark not in SUPPORTED_BENCHMARKS:
            raise ConfigurationError(
                f"benchmark {self.benchmark!r} is not analytically replayable; "
                f"supported: {SUPPORTED_BENCHMARKS}"
            )
        if self.working_set <= 0 or self.contention < 1:
            raise ConfigurationError("working set and contention must be positive")

    @property
    def kind(self) -> str:
        return "latency" if self.benchmark in LATENCY_BENCHMARKS else "throughput"

    def payload(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class CellStats:
    """The fitted summary of one calibrated cell (canonical-JSON-able).

    Latency cells carry the quantile envelope in picoseconds; throughput
    cells carry per-job and aggregate GB/s.  Both carry the derived
    overhead factors so capacity reports can cite them.
    """

    spec: CellSpec
    kind: str
    samples: int
    mean_ps: float
    min_ps: int
    p50_ps: int
    p95_ps: int
    p99_ps: int
    max_ps: int
    gbps_per_job: float
    gbps_total: float
    iotlb_pressure: float
    mux_overhead_ps: int

    def payload(self) -> Dict[str, object]:
        data = asdict(self)
        data["spec"] = self.spec.payload()
        return data

    def canonical(self) -> str:
        return canonical_json(self.payload())

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CellStats":
        data = dict(payload)
        data["spec"] = CellSpec(**data["spec"])
        return cls(**data)


def _mux_overhead_ps(params: PlatformParams, n_accelerators: int = 8) -> int:
    levels = max(1, math.ceil(math.log(max(2, n_accelerators), params.mux_tree_radix)))
    return levels * params.mux_level_latency_ps


def _params_for(spec: CellSpec) -> PlatformParams:
    kwargs: Dict[str, object] = {"speculative_region_opt": spec.speculative}
    if spec.page_size:
        kwargs["page_size"] = spec.page_size
    return PlatformParams(**kwargs)


def calibrate_cell(spec: CellSpec) -> CellStats:
    """Run the real DES once for ``spec`` and fit its service summary."""
    # Imported here (not at module top): the harness imports repro.analytic
    # lazily for the same reason — the factory registry would be circular.
    from repro.experiments.harness import OptimusStack, measure_progress

    params = _params_for(spec)
    page_size = params.page_size
    stack = OptimusStack(params, n_accelerators=8)
    pressure = (
        max(1, spec.working_set // page_size) * spec.contention / IOTLB_ENTRIES
    )
    mux_ps = _mux_overhead_ps(params)

    if spec.kind == "latency":
        pages = max(1, spec.working_set // page_size)
        hops = spec.hops or max(256, 4 * pages)
        jobs = []
        for index in range(spec.contention):
            jobs.append(
                stack.launch(
                    "LL",
                    physical_index=index,
                    working_set=spec.working_set,
                    channel=VirtualChannel(spec.channel),
                    job_kwargs={
                        "functional": False,
                        "seed": _LL_SEED + 31 * index + spec.seed,
                        "target_hops": hops,
                    },
                )
            )
        stack.run_for(ms(5 + 2 * hops // 1000))
        samples: List[int] = []
        for launched in jobs:
            samples.extend(launched.job.latency.steady_samples_ps())
        if not samples:
            raise ConfigurationError(f"calibration produced no samples: {spec}")
        ordered = sorted(samples)

        def rank(q: float) -> int:
            return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]

        return CellStats(
            spec=spec,
            kind="latency",
            samples=len(ordered),
            mean_ps=sum(ordered) / len(ordered),
            min_ps=ordered[0],
            p50_ps=rank(0.50),
            p95_ps=rank(0.95),
            p99_ps=rank(0.99),
            max_ps=ordered[-1],
            gbps_per_job=0.0,
            gbps_total=0.0,
            iotlb_pressure=pressure,
            mux_overhead_ps=mux_ps,
        )

    # Throughput kind: fig6's warm-up + window protocol, one job per slot.
    from repro.accel.membench import MODE_READ, MODE_WRITE

    jobs = []
    for index in range(spec.contention):
        job_kwargs: Dict[str, object] = {"functional": False}
        if spec.benchmark == "MB":
            job_kwargs["seed"] = _MB_SEED + 104729 * index + spec.seed
            job_kwargs["mode"] = MODE_WRITE if spec.variant == "write" else MODE_READ
        jobs.append(
            stack.launch(
                spec.benchmark,
                physical_index=index,
                working_set=spec.working_set,
                channel=VirtualChannel(spec.channel),
                job_kwargs=job_kwargs,
            )
        )
    rates = measure_progress(
        stack, jobs, warmup_ps=us(spec.warmup_us), window_ps=us(spec.window_us)
    )
    total = float(sum(rates))
    return CellStats(
        spec=spec,
        kind="throughput",
        samples=len(rates),
        mean_ps=0.0,
        min_ps=0,
        p50_ps=0,
        p95_ps=0,
        p99_ps=0,
        max_ps=0,
        gbps_per_job=total / len(rates),
        gbps_total=total,
        iotlb_pressure=pressure,
        mux_overhead_ps=mux_ps,
    )


class CalibrationStore:
    """Resident calibrated cells, backed by the experiment cache.

    Lookups go memory -> installed :class:`ExperimentCache` -> fresh DES
    calibration (then stored back as a canonical-JSON artifact).  The
    store is append-only within a process; :meth:`digest` fingerprints
    every resident cell in key order.
    """

    #: Experiment-cache namespace for calibration artifacts.
    CACHE_TAG = "analytic.calibration"

    def __init__(self) -> None:
        self._cells: Dict[str, CellStats] = {}
        self.calibrations = 0  # fresh DES runs (cache misses)

    def __len__(self) -> int:
        return len(self._cells)

    def get_or_calibrate(self, spec: CellSpec) -> CellStats:
        key = canonical_json(spec.payload())
        stats = self._cells.get(key)
        if stats is not None:
            return stats
        cache = current_cache()
        cache_key = None
        if cache is not None:
            cache_key = cache.key(self.CACHE_TAG, spec.payload())
            hit, artifact = cache.load(cache_key)
            if hit:
                stats = CellStats.from_payload(json.loads(artifact))
                self._cells[key] = stats
                return stats
        stats = calibrate_cell(spec)
        self.calibrations += 1
        self._cells[key] = stats
        if cache is not None and cache_key is not None:
            cache.store(cache_key, stats.canonical())
        return stats

    def digest(self) -> str:
        """Fingerprint of every resident cell, stable across processes."""
        payload = canonical_json(
            [self._cells[key].payload() for key in sorted(self._cells)]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def summary(self) -> Dict[str, object]:
        return {
            "cells": len(self._cells),
            "calibrations": self.calibrations,
            "digest": self.digest(),
        }


_DEFAULT: Optional[CalibrationStore] = None


def default_store() -> CalibrationStore:
    """The process-wide store ``make_stack("analytic")`` uses by default."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = CalibrationStore()
    return _DEFAULT
