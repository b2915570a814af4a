"""Measurement instruments: bandwidth meters, latency recorders, counters.

Experiments attach these to accelerators and links, run the platform for a
warm-up interval, call :meth:`reset` on every instrument, run a measurement
window, and then read rates/summaries.  Keeping warm-up out of the numbers
matters: the first touches of a working set populate the IOTLB and would
otherwise skew small-window measurements.

Every instrument implements the uniform protocol consumed by
:class:`repro.telemetry.MetricRegistry`:

* ``name`` — a dotted hierarchical identifier;
* ``reset()`` — zero the window/sample state;
* ``summary() -> Optional[dict]`` — JSON-able summary, ``None`` when the
  instrument has nothing to report (zero-width window, no samples).

Constructing any instrument with ``registry=`` auto-registers it, so the
construction site is also the registration site.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.sim.clock import PS_PER_S, to_ns
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.registry import MetricRegistry


class BandwidthMeter:
    """Counts bytes over a window and reports GB/s.

    **Empty-window behavior:** before any simulated time elapses the
    window has zero width, and :meth:`gb_per_s` returns ``0.0`` rather
    than dividing by zero; :meth:`summary` returns ``None`` so callers
    can distinguish "no window yet" from a genuinely idle link.
    """

    def __init__(
        self,
        engine: Engine,
        name: str = "bw",
        *,
        registry: Optional["MetricRegistry"] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.bytes_total = 0
        self.packets_total = 0
        self._window_start_ps = engine.now
        if registry is not None:
            registry.register(self)

    def record(self, size_bytes: int) -> None:
        self.bytes_total += size_bytes
        self.packets_total += 1

    def record_burst(self, size_bytes: int, packets: int) -> None:
        """Account a coalesced burst: total bytes carried by N packets."""
        self.bytes_total += size_bytes
        self.packets_total += packets

    def reset(self) -> None:
        self.bytes_total = 0
        self.packets_total = 0
        self._window_start_ps = self.engine.now

    @property
    def window_start_ps(self) -> int:
        return self._window_start_ps

    @property
    def window_ps(self) -> int:
        return self.engine.now - self._window_start_ps

    def gb_per_s(self) -> float:
        """Average bandwidth over the window, in 1e9 bytes per second."""
        window = self.window_ps
        if window <= 0:
            return 0.0
        return self.bytes_total / window * PS_PER_S / 1e9

    def summary(self) -> Optional[Dict[str, float]]:
        """Window summary, or ``None`` for a zero-width window."""
        if self.window_ps <= 0:
            return None
        return {
            "gb_per_s": self.gb_per_s(),
            "bytes": float(self.bytes_total),
            "packets": float(self.packets_total),
            "window_ps": float(self.window_ps),
        }


class LatencyRecorder:
    """Collects per-transaction latencies (in ps) and summarizes them.

    **Empty-sample behavior:** with no recorded samples every scalar
    accessor (:meth:`mean_ns`, :meth:`percentile_ns`, :meth:`max_ns`,
    :meth:`min_ns`) returns ``0.0`` — never ``NaN`` and never a raise —
    so measurement loops can print summaries unconditionally.  Callers
    that must distinguish "no samples" from "zero latency" should use
    :meth:`summary`, which returns ``None`` when empty.
    """

    def __init__(
        self,
        name: str = "latency",
        *,
        registry: Optional["MetricRegistry"] = None,
    ) -> None:
        self.name = name
        self.samples_ps: List[int] = []
        self._sorted: Optional[List[int]] = None
        if registry is not None:
            registry.register(self)

    def record(self, latency_ps: int) -> None:
        self.samples_ps.append(latency_ps)
        self._sorted = None

    def record_many(self, latencies_ps: Iterable[int]) -> None:
        """Record a batch of samples, in order (a committed burst's lines)."""
        self.samples_ps.extend(latencies_ps)
        self._sorted = None

    def reset(self) -> None:
        self.samples_ps = []
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples_ps)

    def steady_samples_ps(
        self, *, skip_fraction: float = 0.5, max_skip: Optional[int] = None
    ) -> List[int]:
        """Samples past warm-up: drop the first ``skip_fraction`` of them.

        ``max_skip`` caps the number dropped, so long runs keep a bounded
        warm-up discard.  This is the public accessor experiments use for
        steady-state means (instead of slicing ``samples_ps`` directly).
        """
        skip = int(len(self.samples_ps) * skip_fraction)
        if max_skip is not None:
            skip = min(skip, max_skip)
        return self.samples_ps[skip:]

    def mean_ns(self) -> float:
        if not self.samples_ps:
            return 0.0
        return to_ns(sum(self.samples_ps)) / len(self.samples_ps)

    def quantile_ps(self, q: float) -> int:
        """Exact ``q``-quantile (``0 < q <= 1``) of the retained samples.

        The sorted view is cached and invalidated on :meth:`record`, so a
        summary reading several quantiles sorts once — and SLO checks that
        cross-check the online estimator against truth stay off the
        sort-per-call path.  Rank rule: ``ceil(q * n)`` (1-based), clamped,
        matching the historical :meth:`percentile_ns` behaviour exactly.
        Returns ``0`` with no samples.
        """
        if not self.samples_ps:
            return 0
        if self._sorted is None:
            self._sorted = sorted(self.samples_ps)
        n = len(self._sorted)
        rank = min(n - 1, max(0, math.ceil(q * n) - 1))
        return self._sorted[rank]

    def percentile_ns(self, pct: float) -> float:
        if not self.samples_ps:
            return 0.0
        return to_ns(self.quantile_ps(pct / 100.0))

    def max_ns(self) -> float:
        return to_ns(max(self.samples_ps)) if self.samples_ps else 0.0

    def min_ns(self) -> float:
        return to_ns(min(self.samples_ps)) if self.samples_ps else 0.0

    def summary(self) -> Optional[Dict[str, float]]:
        """NaN-free distribution summary, or ``None`` with no samples."""
        if not self.samples_ps:
            return None
        return {
            "count": float(self.count),
            "mean_ns": self.mean_ns(),
            "p50_ns": self.percentile_ns(50),
            "p95_ns": self.percentile_ns(95),
            "p99_ns": self.percentile_ns(99),
            "min_ns": self.min_ns(),
            "max_ns": self.max_ns(),
        }


class OnlineQuantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac,
    CACM 1985) — O(1) memory and O(1) per sample, no retained sample list.

    The SLO admission path (:mod:`repro.serve.slo`) consults a per-class
    p99 estimate on *every* arrival; sorting a full
    :class:`LatencyRecorder` sample list there would make admission
    O(n log n) per request.  This instrument keeps five markers whose
    positions are nudged toward the ideal quantile ranks with parabolic
    interpolation, giving a deterministic estimate from pure float
    arithmetic (same samples, same order -> bit-identical estimate).

    **Small-sample behavior:** through the first five samples the
    estimate is *exact* — computed from the observations held so far with
    the same ``ceil(q * n)`` rank rule as
    :meth:`LatencyRecorder.quantile_ps`, so the two estimators agree on
    degenerate sample counts; :meth:`summary` returns ``None`` with no
    samples, matching the empty-summary contract of the other
    instruments.
    """

    def __init__(
        self,
        q: float,
        name: str = "quantile",
        *,
        registry: Optional["MetricRegistry"] = None,
    ) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.name = name
        self.count = 0
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        if registry is not None:
            registry.register(self)

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._heights.append(value)
            self._heights.sort()
            if self.count == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0 + 4.0 * increment for increment in self._increments
                ]
            return
        heights, positions = self._heights, self._positions
        # Which cell does the new observation fall in? Extremes stretch
        # the end markers.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]
        # Nudge the three interior markers toward their desired positions.
        for index in range(1, 4):
            delta = self._desired[index] - positions[index]
            below = positions[index] - positions[index - 1]
            above = positions[index + 1] - positions[index]
            if (delta >= 1.0 and above > 1.0) or (delta <= -1.0 and below > 1.0):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:  # parabolic estimate left the bracket: linear fallback
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate; exact through five samples, ``0.0`` when empty.

        At ``count <= 5`` the marker heights are still the sorted raw
        observations, so the exact ``ceil(q * n)`` rank rule applies — the
        same rule as :meth:`LatencyRecorder.quantile_ps`, so the online
        and exact estimators agree on degenerate sample counts.  (Reading
        ``_heights[2]`` at exactly five samples would report the *median*
        for any ``q``, but the p99 of five samples is their max.)  From
        the sixth sample on, marker 2 is the P² quantile marker proper.
        """
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            ordered = self._heights
            rank = min(len(ordered) - 1, max(0, math.ceil(self.q * len(ordered)) - 1))
            return ordered[rank]
        return self._heights[2]

    def reset(self) -> None:
        self.count = 0
        self._heights = []
        self._positions = []
        self._desired = []

    def summary(self) -> Optional[Dict[str, float]]:
        if self.count == 0:
            return None
        return {"q": self.q, "count": float(self.count), "estimate": self.value()}


class Counters:
    """A named bag of monotonically increasing event counters."""

    def __init__(
        self,
        name: str = "counters",
        *,
        values: Optional[Dict[str, int]] = None,
        registry: Optional["MetricRegistry"] = None,
    ) -> None:
        self.name = name
        self.values: Dict[str, int] = dict(values or {})
        if registry is not None:
            registry.register(self)

    def bump(self, name: str, amount: int = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.values.get(name, 0)

    def reset(self) -> None:
        self.values.clear()

    def snapshot(self) -> Dict[str, int]:
        return dict(self.values)

    def summary(self) -> Optional[Dict[str, float]]:
        """The counter values (sorted), or ``None`` when nothing counted."""
        if not self.values:
            return None
        return {key: float(value) for key, value in sorted(self.values.items())}


def normalized_range(values: List[float]) -> float:
    """(max - min) / mean — the fairness metric of the paper's Table 3."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    return (max(values) - min(values)) / mean


class UtilizationTracker:
    """Tracks busy time of a resource (e.g. a physical accelerator).

    The temporal-multiplexing fairness experiment (§6.8) uses this to check
    each virtual accelerator's share of physical-accelerator time against
    the share its scheduling policy promises.
    """

    def __init__(
        self,
        engine: Engine,
        name: str = "util",
        *,
        registry: Optional["MetricRegistry"] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.busy_ps = 0
        self._busy_since: Optional[int] = None
        self._window_start_ps = engine.now
        if registry is not None:
            registry.register(self)

    def begin(self) -> None:
        if self._busy_since is None:
            self._busy_since = self.engine.now

    def end(self) -> None:
        if self._busy_since is not None:
            self.busy_ps += self.engine.now - self._busy_since
            self._busy_since = None

    def reset(self) -> None:
        self.busy_ps = 0
        self._window_start_ps = self.engine.now
        if self._busy_since is not None:
            self._busy_since = self.engine.now

    @property
    def window_ps(self) -> int:
        return self.engine.now - self._window_start_ps

    def current_busy_ps(self) -> int:
        extra = 0
        if self._busy_since is not None:
            extra = self.engine.now - self._busy_since
        return self.busy_ps + extra

    def summary(self) -> Optional[Dict[str, float]]:
        """Busy share over the window, or ``None`` for a zero-width window."""
        window = self.window_ps
        if window <= 0:
            return None
        busy = self.current_busy_ps()
        return {
            "busy_ps": float(busy),
            "window_ps": float(window),
            "utilization": busy / window,
        }
