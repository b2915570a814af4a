"""Fleet-wide measurement: counters, latency percentiles, utilization.

Aggregates the same :mod:`repro.sim.stats` instruments the single-node
experiments use — a :class:`~repro.sim.stats.Counters` bag for admission
events and a :class:`~repro.sim.stats.LatencyRecorder` for placement
latency (queueing delay + control-plane placement cost, in simulated
time) — and adds two fleet-only figures:

* **time-weighted per-type utilization**, integrated over the serving run
  (occupancy x time over capacity x time, so 1.0 means every physical
  slot of the type held exactly one tenant the whole run; values above
  1.0 mean temporal oversubscription) — the integral is the cluster
  index's (:class:`~repro.cloud.slots.OccupancyIndex`, exact integer
  ps x tenants kept per occupancy change), so a sample costs O(1);
* a **placement trace**: one line per admission decision, identical
  across runs with the same seed and policy, with a digest for quick
  reproducibility checks.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.stats import Counters, LatencyRecorder
from repro.telemetry import MetricRegistry, current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.slots import OccupancyIndex
    from repro.fleet.cluster import ClusterState


class FleetMetrics:
    """One serving run's worth of fleet-wide measurements."""

    def __init__(self, *, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry("fleet")
        self.counters = Counters(
            name="fleet.admission", registry=self.registry
        )
        self.placement_latency = LatencyRecorder(
            "fleet.placement", registry=self.registry
        )
        # The ``faults.*`` subtree: injected events, recovery actions, and
        # their outcomes, all visible through the fleet registry snapshot.
        self.fault_counters = Counters(name="faults.fleet", registry=self.registry)
        self.replacement_latency = LatencyRecorder(
            "faults.replacement", registry=self.registry
        )
        self.placed_by_type: Dict[str, int] = {}
        self.trace: List[str] = []
        self._capacity: Dict[str, int] = {}
        self._last_sample_ps = 0
        self._span_ps = 0
        #: The cluster index integrated while a ``serve()`` runs, and its
        #: per-type integral when this run attached to it.
        self._index: Optional["OccupancyIndex"] = None
        self._base: Dict[str, int] = {}
        #: Per-type integral (ps x tenants) of the finished ``serve()`` calls.
        self._settled: Dict[str, int] = {}
        # Fleet admission/placement events live in their own trace scope;
        # the serving loop is deterministic control plane, so these are
        # identical across simulator modes by construction.
        tracer = current_tracer()
        self._trace_scope = tracer.scope("fleet") if tracer is not None else None
        if self._trace_scope is not None:
            # Allocated up front so tids never depend on which event is first.
            self._trace_scope.thread("admission")
            self._trace_scope.thread("queue")

    # -- event recording --------------------------------------------------------------

    def _emit(
        self,
        now_ps: int,
        line: Optional[str],
        name: str,
        cat: str,
        args: Dict[str, object],
        tid: str = "admission",
    ) -> None:
        """The one way a fleet event is recorded: its placement-trace
        line (``None`` for events the digest never covered) and, when a
        tracer is installed, the matching instant on thread ``tid``."""
        if line is not None:
            self.trace.append(line)
        scope = self._trace_scope
        if scope is not None:
            scope.instant(name, now_ps, tid=scope.thread(tid), cat=cat, args=args)

    def record_placement(
        self,
        *,
        now_ps: int,
        request,
        node_name: str,
        physical_index: int,
        temporal: bool,
        latency_ps: int,
    ) -> None:
        self.counters.bump("placements")
        self.counters.bump("placements_temporal" if temporal else "placements_spatial")
        self.placed_by_type[request.accel_type] = (
            self.placed_by_type.get(request.accel_type, 0) + 1
        )
        self.placement_latency.record(latency_ps)
        mode = "temporal" if temporal else "spatial"
        self._emit(
            now_ps,
            f"{now_ps} {request.tenant} {request.accel_type} -> "
            f"{node_name}/slot{physical_index} {mode} wait={latency_ps}",
            "fleet.place", "fleet",
            {"tenant": request.tenant, "type": request.accel_type,
             "node": node_name, "slot": physical_index,
             "mode": mode, "wait_ps": latency_ps})

    def record_queued(self, *, now_ps: int, request, depth: int) -> None:
        self.counters.bump("queued")
        self._emit(
            now_ps,
            f"{now_ps} {request.tenant} {request.accel_type} -> queued depth={depth}",
            "fleet.queue", "fleet",
            {"tenant": request.tenant, "depth": depth}, tid="queue")
        if self._trace_scope is not None:
            self._trace_scope.counter(
                "queue_depth", now_ps, {"depth": float(depth)},
                tid=self._trace_scope.thread("queue"), cat="fleet")

    def record_degrade(self, *, now_ps: int, request, scale: float) -> None:
        """The admission policy admitted a request with trimmed service."""
        self.counters.bump("degraded")
        self._emit(
            now_ps,
            f"{now_ps} {request.tenant} {request.accel_type} -> "
            f"degraded x{scale:.2f}",
            "fleet.degrade", "fleet",
            {"tenant": request.tenant, "scale": scale})

    def record_retry(self, *, now_ps: int, request, attempt: int) -> None:
        self.counters.bump("retries")
        self._emit(
            now_ps,
            f"{now_ps} {request.tenant} {request.accel_type} -> retry#{attempt}",
            "fleet.retry", "fleet",
            {"tenant": request.tenant, "attempt": attempt}, tid="queue")

    def record_rejection(self, *, now_ps: int, request, reason: str) -> None:
        self.counters.bump("rejections")
        self.counters.bump(f"rejections_{reason}")
        self._emit(
            now_ps,
            f"{now_ps} {request.tenant} {request.accel_type} -> rejected ({reason})",
            "fleet.reject", "fleet",
            {"tenant": request.tenant, "reason": reason})

    def record_fault(self, *, now_ps: int, kind: str, target: str, outcome: str) -> None:
        """One injected fault event and how the fleet resolved it."""
        self.fault_counters.bump("injected")
        self.fault_counters.bump(f"injected_{kind}")
        self.fault_counters.bump(f"outcome_{outcome}")
        self._emit(
            now_ps, f"{now_ps} fault {kind} {target} -> {outcome}",
            "fleet.fault", "fault",
            {"kind": kind, "target": target, "outcome": outcome})

    def record_replacement(
        self,
        *,
        now_ps: int,
        request,
        node_name: str,
        physical_index: int,
        latency_ps: int,
    ) -> None:
        """A displaced session re-placed on a healthy node (failover)."""
        self.fault_counters.bump("replacements")
        self.replacement_latency.record(latency_ps)
        self._emit(
            now_ps,
            f"{now_ps} {request.tenant} {request.accel_type} ~> "
            f"{node_name}/slot{physical_index} replaced",
            "fleet.replace", "fault",
            {"tenant": request.tenant, "node": node_name, "slot": physical_index})

    def record_migration(
        self,
        *,
        now_ps: int,
        tenant: str,
        source: str,
        destination: str,
        blackout_ps: int,
        digest: str,
    ) -> None:
        """One successful live migration, with its bounded blackout span."""
        self.fault_counters.bump("migrations")
        self.trace.append(
            f"{now_ps} {tenant} ~> {source}->{destination} migrated "
            f"blackout={blackout_ps} ckpt={digest}"
        )
        if self._trace_scope is not None:
            # A complete ("X") span so trace consumers can measure the
            # blackout window; the category is the CI smoke contract.
            self._trace_scope.complete(
                "hv.migrate", now_ps, now_ps + blackout_ps,
                tid=self._trace_scope.thread("admission"), cat="hv.migration",
                args={"tenant": tenant, "source": source,
                      "destination": destination, "ckpt": digest})

    def record_migration_failure(
        self, *, now_ps: int, tenant: str, reason: str
    ) -> None:
        """A migration attempt found no destination; the session stayed put."""
        self.fault_counters.bump("migration_failures")
        self._emit(
            now_ps, f"{now_ps} {tenant} ~> migration failed ({reason})",
            "fleet.migrate_fail", "fault", {"tenant": tenant, "reason": reason})

    def record_cordon(self, *, now_ps: int, node: str, cordoned: bool) -> None:
        """A node entered (or left) the cordoned admission gate."""
        self.fault_counters.bump("cordons" if cordoned else "uncordons")
        verb = "cordoned" if cordoned else "uncordoned"
        self._emit(
            now_ps, f"{now_ps} node {node} -> {verb}",
            "fleet.cordon", "fleet", {"node": node, "cordoned": cordoned})

    def record_drain(
        self, *, now_ps: int, node: str, migrated: int, remaining: int
    ) -> None:
        """One drain verb finished over a node."""
        self.fault_counters.bump("drains")
        self._emit(
            now_ps,
            f"{now_ps} node {node} -> drained migrated={migrated} "
            f"remaining={remaining}",
            "fleet.drain", "fleet",
            {"node": node, "migrated": migrated, "remaining": remaining})

    def record_autoscale(
        self, *, now_ps: int, action: str, node: str, reason: str
    ) -> None:
        """The autoscaler took one action (scale_up/scale_down/evacuate)."""
        self.fault_counters.bump(f"autoscale_{action}")
        self._emit(
            now_ps, f"{now_ps} autoscale {action} {node} ({reason})",
            "fleet.autoscale", "fleet",
            {"action": action, "node": node, "reason": reason})

    def record_quarantine(self, *, now_ps: int, tenant: str) -> None:
        """The fleet watchdog benched a guest making no forward progress."""
        self.fault_counters.bump("quarantines")
        self._emit(
            now_ps, f"{now_ps} {tenant} -> quarantined",
            "fleet.quarantine", "fault", {"tenant": tenant})

    def record_fault_failure(self, *, now_ps: int, tenant: str, reason: str) -> None:
        """An accepted request terminated because of an injected fault."""
        self.fault_counters.bump("failed_by_fault")
        self._emit(
            now_ps, f"{now_ps} {tenant} -> failed_by_fault ({reason})",
            "fleet.fault_failure", "fault", {"tenant": tenant, "reason": reason})

    def record_departure(self, *, now_ps: int, tenant: str) -> None:
        self.counters.bump("departures")
        self._emit(now_ps, None, "fleet.depart", "fleet", {"tenant": tenant})

    # -- utilization integration --------------------------------------------------------

    def sample_utilization(self, now_ps: int, cluster: "ClusterState") -> None:
        """Extend the run to ``now_ps``; call *before* state changes.

        O(1): the occupancy integral is kept by the cluster's index, whose
        clock the serving loop stamps before this (``advance_epoch``).  The
        first sample of a ``serve()`` attaches to it, so occupancy already
        resident counts from the previous sample (from 0 on the first).
        """
        if self._index is None:
            if not self._capacity:
                self._capacity = {
                    t: cluster.capacity(t) for t in cluster.offered_types()
                }
            index = cluster.occupancy_index
            self._base = {
                t: index.integral(t, self._last_sample_ps) for t in self._capacity
            }
            self._index = index
        elapsed = now_ps - self._last_sample_ps
        if elapsed > 0:
            self._span_ps += elapsed
        self._last_sample_ps = now_ps

    def settle_utilization(self) -> None:
        """``serve()`` returned: fold the integral into this run's totals and
        detach, so the figures stop following a cluster that serves on."""
        if self._index is not None:
            self._settled = {t: self._integral(t) for t in self._capacity}
            self._index = None

    def _integral(self, accel_type: str) -> int:
        """Tenants x ps on ``accel_type`` slots over the sampled span."""
        total = self._settled.get(accel_type, 0)
        if self._index is not None:
            total += (
                self._index.integral(accel_type, self._last_sample_ps)
                - self._base[accel_type]
            )
        return total

    def utilization_by_type(self) -> Dict[str, float]:
        """Time-weighted tenants-per-slot per type over the whole run."""
        if not self._span_ps:
            return {t: 0.0 for t in self._capacity}
        return {
            accel_type: self._integral(accel_type) / (self._span_ps * capacity)
            for accel_type, capacity in sorted(self._capacity.items())
            if capacity
        }

    # -- reporting ---------------------------------------------------------------------

    def oversubscription_ratio(self) -> float:
        """Share of placements that had to share a slot temporally."""
        placed = self.counters.get("placements")
        if not placed:
            return 0.0
        return self.counters.get("placements_temporal") / placed

    def rejection_rate(self) -> float:
        total = self.counters.get("placements") + self.counters.get("rejections")
        if not total:
            return 0.0
        return self.counters.get("rejections") / total

    def trace_digest(self) -> str:
        """A stable fingerprint of the placement trace (reproducibility):
        sha256 of its lines joined by newlines, fed one line at a time."""
        digest = hashlib.sha256()
        separator = b""
        for line in self.trace:
            digest.update(separator + line.encode())
            separator = b"\n"
        return digest.hexdigest()[:16]

    def summary(self) -> Dict[str, object]:
        latency: Optional[Dict[str, float]] = self.placement_latency.summary()
        return {
            "placements": self.counters.get("placements"),
            "placements_spatial": self.counters.get("placements_spatial"),
            "placements_temporal": self.counters.get("placements_temporal"),
            "rejections": self.counters.get("rejections"),
            "rejections_queue_full": self.counters.get("rejections_queue_full"),
            "rejections_retries_exhausted": self.counters.get(
                "rejections_retries_exhausted"
            ),
            "rejections_unsupported": self.counters.get("rejections_unsupported"),
            "rejections_slo_shed": self.counters.get("rejections_slo_shed"),
            "degraded": self.counters.get("degraded"),
            "queued": self.counters.get("queued"),
            "retries": self.counters.get("retries"),
            "departures": self.counters.get("departures"),
            "rejection_rate": self.rejection_rate(),
            "oversubscription_ratio": self.oversubscription_ratio(),
            "placement_latency": latency,  # None when nothing was placed
            "placed_by_type": dict(sorted(self.placed_by_type.items())),
            "utilization_by_type": self.utilization_by_type(),
            "faults": dict(sorted(self.fault_counters.snapshot().items())),
            "trace_digest": self.trace_digest(),
        }

    def render(self) -> str:
        summary = self.summary()
        lines = ["fleet serving summary", "=" * 21]
        lines.append(
            f"placements: {summary['placements']} "
            f"(spatial {summary['placements_spatial']}, "
            f"temporal {summary['placements_temporal']})"
        )
        lines.append(
            f"rejections: {summary['rejections']} "
            f"(queue-full {summary['rejections_queue_full']}, "
            f"retries-exhausted {summary['rejections_retries_exhausted']}, "
            f"unsupported {summary['rejections_unsupported']}) "
            f"rate {summary['rejection_rate']:.1%}"
        )
        lines.append(
            f"queued: {summary['queued']}  retries: {summary['retries']}  "
            f"departures: {summary['departures']}"
        )
        lines.append(f"oversubscription ratio: {summary['oversubscription_ratio']:.2f}")
        latency = summary["placement_latency"]
        if latency is None:
            lines.append("placement latency: no placements")
        else:
            lines.append(
                "placement latency: "
                f"p50 {latency['p50_ns'] / 1e3:.1f} us  "
                f"p95 {latency['p95_ns'] / 1e3:.1f} us  "
                f"p99 {latency['p99_ns'] / 1e3:.1f} us"
            )
        util = summary["utilization_by_type"]
        if util:
            cells = "  ".join(f"{t}={u:.2f}" for t, u in util.items())
            lines.append(f"per-type utilization (tenants/slot): {cells}")
        placed = summary["placed_by_type"]
        if placed:
            cells = "  ".join(f"{t}={n}" for t, n in placed.items())
            lines.append(f"placements by type: {cells}")
        lines.append(f"trace: {len(self.trace)} events, digest {summary['trace_digest']}")
        return "\n".join(lines)
