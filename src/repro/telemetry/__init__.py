"""repro.telemetry — structured tracing + metrics for the whole stack.

Two halves:

* :mod:`repro.telemetry.tracer` — simulated-time span/instant/counter
  events in Chrome trace-event JSON (Perfetto-loadable), deterministic
  and identical between a platform's burst fast path and its per-line
  reference path;
* :mod:`repro.telemetry.registry` — the :class:`MetricRegistry` owning
  every instrument (:class:`~repro.sim.stats.BandwidthMeter`,
  :class:`~repro.sim.stats.LatencyRecorder`,
  :class:`~repro.sim.stats.UtilizationTracker`,
  :class:`~repro.sim.stats.Counters`, IOTLB stats) behind the uniform
  ``name`` / ``reset()`` / ``summary()`` protocol with hierarchical
  names and a single ``snapshot()``.

Capture a trace from the CLI with ``python -m repro run <experiment> --trace FILE``;
see DESIGN.md §7 for the event taxonomy and the overhead contract.

This package imports nothing from :mod:`repro.sim` — the dependency runs
the other way (the engine and the instruments hook into telemetry).
"""

from repro.telemetry.registry import MetricRegistry
from repro.telemetry.tracer import (
    TraceScope,
    Tracer,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)

__all__ = [
    "MetricRegistry",
    "TraceScope",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
]
