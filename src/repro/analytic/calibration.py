"""DES-calibrated per-slot throughput: the source of ``capacity`` goodput.

The capacity planner never guesses how many bytes an accelerator moves —
:func:`repro.analytic.capacity._calibrated_goodput` reads what the
detailed simulator measured.  A **cell** is one accelerator type measured
alone on an OPTIMUS node: one job on slot 0 over a 16 MB working set,
run through fig6's warm-up + window protocol (60 µs, then a 100 µs
window).  Calibrating a cell runs that DES once and keeps its per-job
GB/s.

Artifacts are *canonical JSON* (sorted keys, tight separators — the same
:func:`repro.envelope.canonical_json` every digest uses),
seeded, and stored through the content-addressed experiment cache when
one is installed: a warm run loads the artifact and skips the DES;
editing any simulator source invalidates every cell via the cache's
source-tree digest.  The store's :meth:`digest` is a stable fingerprint
of every cell consulted, which ``capacity`` reports as
``calibration_digest``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.envelope import canonical_json
from repro.errors import ConfigurationError
from repro.experiments.cache import current_cache
from repro.mem import MB
from repro.sim.clock import us

#: Benchmarks whose progress is a byte rate.  LL reports latency, and
#: SSSP and BTC report progress in units a GB/s cell cannot honestly
#: express, so goodput omits them rather than reading them as zero.
SUPPORTED_BENCHMARKS = (
    "MB", "AES", "SHA", "MD5", "FIR", "GRN", "SW", "RSD", "GAU", "GRS", "SBL",
)

#: MemBench's seed, matching fig6's, so a calibration run of an MB cell
#: is bit-identical to the figure's own DES run.
_MB_SEED = 0xFEED_BEEF


@dataclass(frozen=True)
class CellSpec:
    """One calibration cell: a benchmark alone on one OPTIMUS slot.

    ``working_set``/``warmup_us``/``window_us`` pin the measurement
    protocol into the artifact key; the defaults are goodput's.
    """

    benchmark: str
    working_set: int = 16 * MB
    warmup_us: int = 60
    window_us: int = 100

    def __post_init__(self) -> None:
        if self.benchmark not in SUPPORTED_BENCHMARKS:
            raise ConfigurationError(
                f"benchmark {self.benchmark!r} has no calibrated byte rate; "
                f"supported: {SUPPORTED_BENCHMARKS}"
            )
        if self.working_set <= 0:
            raise ConfigurationError("working set must be positive")

    def payload(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class CellStats:
    """The measured rate of one calibrated cell (canonical-JSON-able)."""

    spec: CellSpec
    gbps_per_job: float

    def payload(self) -> Dict[str, object]:
        data = asdict(self)
        data["spec"] = self.spec.payload()
        return data

    def canonical(self) -> str:
        return canonical_json(self.payload())

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CellStats":
        data = dict(payload)
        data["spec"] = CellSpec(**data["spec"])
        return cls(**data)


def calibrate_cell(spec: CellSpec) -> CellStats:
    """Run the real DES once for ``spec`` and keep its per-job GB/s."""
    # Imported here (not at module top): the harness pulls in the whole
    # OPTIMUS stack, which only a cold calibration needs.
    from repro.experiments.harness import OptimusStack, measure_progress
    from repro.platform import PlatformParams

    stack = OptimusStack(PlatformParams(), n_accelerators=8)
    job_kwargs: Dict[str, object] = {"functional": False}
    if spec.benchmark == "MB":
        job_kwargs["seed"] = _MB_SEED
    job = stack.launch(
        spec.benchmark, working_set=spec.working_set, job_kwargs=job_kwargs
    )
    (rate,) = measure_progress(
        stack, [job], warmup_ps=us(spec.warmup_us), window_ps=us(spec.window_us)
    )
    return CellStats(spec=spec, gbps_per_job=float(rate))


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


_DEFAULT: Optional[CalibrationStore] = None


def default_store() -> CalibrationStore:
    """The process-wide store ``capacity`` goodput reads."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = CalibrationStore()
    return _DEFAULT
