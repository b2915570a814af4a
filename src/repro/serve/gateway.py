"""The serving gateway: session chains as continuations on the fleet loop.

The fleet's serving loop (:class:`repro.fleet.admission.FleetService`)
is a batch machine: hand it a request list, get a result.  A *service*
is the inverse shape — long-lived clients that connect, wait, react, and
come back.  :class:`Gateway` bridges the two on the **one** event loop
the stack has, the ``FleetService`` engine, without giving up an inch of
determinism:

* :meth:`Gateway.run` submits the root session of every closed-loop
  **chain** in an :class:`~repro.serve.trace.ArrivalTrace`, in
  ``trace.chains()`` order, and then lets the service loop run;
* the gateway is that loop's observer (:class:`~repro.fleet.admission
  .FleetObserver`): :meth:`Gateway.on_outcome` appends each finished
  session to a FIFO list, and :meth:`Gateway.on_epoch` — called at every
  event boundary, right after the cluster's own epoch advance, which on
  a sharded fleet flushes operation batches — walks that list in order.
  For each finished session the walk forgets the live record, then
  either counts the rest of the chain as abandoned (the client was shed,
  rejected or lost to a fault) or submits the chain's next session.  No
  wall-clock timers, no I/O, no second scheduler: a follow-up exists
  only because a simulated event finished its predecessor, so the
  interleaving is a pure function of the trace;
* a follow-up arrives at ``max(now, finished + think)``, where ``now``
  is the **next event boundary after the completion** — the client
  "notices" its session ended when the loop next turns, never at the
  completion instant itself.  The simulated clock never runs backwards,
  and every pinned serving digest was recorded under this rule;
  submitting from inside :meth:`Gateway.on_outcome` would move arrivals
  earlier and change all of them.

The gateway works unchanged over the serial and sharded fleets: it
observes the one :class:`FleetService` loop, whichever cluster that loop
drives, and because every observer call fires inside the deterministic
serving loop the resulting envelopes are byte-identical at any
``--shards N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.admission import (
    AdmissionDecision,
    FleetObserver,
    FleetService,
    ServeResult,
)
from repro.fleet.traffic import TenantRequest
from repro.serve.trace import ArrivalTrace, SessionRecord
from repro.sim.stats import Counters, LatencyRecorder
from repro.telemetry import MetricRegistry, current_tracer

#: Terminal outcomes that let a chain continue to its next session.
_CONTINUE_OUTCOMES = ("completed", "replaced_completed", "migrated_completed")


class _LiveSession(NamedTuple):
    """One submitted, not-yet-forgotten session and its place in its chain."""

    record: SessionRecord
    arrival_ps: int
    chain: List[SessionRecord]
    position: int


@dataclass
class GatewayResult:
    """Everything one serving run produced, JSON-able via ``to_dict``."""

    serve: ServeResult
    trace_name: str
    trace_seed: Optional[int]
    trace_digest: str
    sessions: int
    chains: int
    submitted: int
    abandoned: int
    class_report: Dict[str, Dict[str, object]]
    slo: Optional[Dict[str, object]]
    counters: Dict[str, int]

    def session_outcomes(self) -> Dict[str, int]:
        return self.serve.outcome_counts()

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": {
                "name": self.trace_name,
                "seed": self.trace_seed,
                "digest": self.trace_digest,
                "sessions": self.sessions,
                "chains": self.chains,
            },
            "sessions": {
                "submitted": self.submitted,
                "abandoned": self.abandoned,
                "outcomes": self.session_outcomes(),
                "availability": self.serve.availability(),
                **{k: v for k, v in sorted(self.counters.items())},
            },
            "classes": self.class_report,
            "slo": self.slo,
            "serving": self.serve.summary(),
        }


class Gateway(FleetObserver):
    """Replays an :class:`ArrivalTrace` through a :class:`FleetService`,
    as that service's observer."""

    def __init__(
        self,
        service: FleetService,
        trace: ArrivalTrace,
        *,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if service.observer is not None:
            raise ConfigurationError("service already has an observer attached")
        self.service = service
        self.trace = trace
        self.registry = registry if registry is not None else MetricRegistry("serve")
        self.registry.mount("fleet.", service.metrics.registry)
        self.counters = Counters(name="serve.sessions", registry=self.registry)
        self._class_latency: Dict[str, LatencyRecorder] = {}
        self._class_counts: Dict[str, Dict[str, int]] = {}
        self._live: Dict[int, _LiveSession] = {}
        #: Sessions whose outcome fired, awaiting the next event boundary.
        self._finished: List[Tuple[_LiveSession, str, int]] = []
        self._open_chains = 0
        self._abandoned = 0
        self._submitted = 0
        tracer = current_tracer()
        self._trace_scope = tracer.scope("serve") if tracer is not None else None
        if self._trace_scope is not None:
            # Allocated up front so tids never depend on which event is first.
            self._trace_scope.thread("sessions")
            self._trace_scope.thread("admission")
        service.observer = self

    def _emit(self, event: str, tid: str, *what, args: Dict[str, object]) -> None:
        """One ``instant``/``complete`` event on the serve trace scope, if tracing."""
        scope = self._trace_scope
        if scope is not None:
            getattr(scope, event)(*what, tid=scope.thread(tid), cat="serve", args=args)

    # -- the connect() surface ---------------------------------------------

    def connect(
        self, chain: List[SessionRecord], position: int, arrival_ps: int
    ) -> None:
        """Submit session ``position`` of ``chain``, arriving at ``arrival_ps``.

        The fleet-level analog of ``CloudProvider.connect``: the session
        stays in the gateway's live table until the continuation that
        handles its outcome forgets it.
        """
        record = chain[position]
        if record.session_id in self._live:
            raise SimulationError(
                f"session {record.session_id} submitted twice"
            )
        self._live[record.session_id] = _LiveSession(
            record, arrival_ps, chain, position
        )
        self._submitted += 1
        self.counters.bump("submitted")
        self.service.submit(record.to_request(arrival_ps))

    # -- the continuation: one step per finished session ---------------------

    def _continue_chains(self, now: int) -> None:
        """Advance every chain whose session finished since the last boundary.

        FIFO in outcome order.  ``now`` is the event boundary being
        crossed — later than the completion itself — and a returning
        client arrives no earlier (the simulated clock is monotonic).
        """
        finished, self._finished = self._finished, []
        for session, outcome, finished_ps in finished:
            del self._live[session.record.session_id]
            chain, following = session.chain, session.position + 1
            remaining = len(chain) - following
            if remaining and outcome in _CONTINUE_OUTCOMES:
                think_ps = chain[following].arrival_ps
                self.connect(chain, following, max(now, finished_ps + think_ps))
                continue
            self._open_chains -= 1
            if remaining:
                self._abandoned += remaining
                self.counters.bump("abandoned", remaining)

    # -- FleetObserver (called inside the serving loop) --------------------

    def on_epoch(self, now: int) -> None:
        if self._finished:
            self._continue_chains(now)

    def on_drained(self, now: int) -> None:
        # Final outcomes; their follow-up arrivals keep the loop serving.
        self._continue_chains(now)

    def on_decision(
        self, request: TenantRequest, decision: AdmissionDecision, now: int
    ) -> None:
        if decision.action != "admit":
            self.counters.bump(f"decision_{decision.action}")
            self._emit(
                "instant", "admission", f"serve.{decision.action}", now,
                args={"tenant": request.tenant,
                      "class": request.tenant_class,
                      "reason": decision.reason})

    def on_placed(
        self, request: TenantRequest, now: int, latency_ps: int, replaced: bool
    ) -> None:
        if replaced:
            return  # failover re-placement: the session was already live
        session = self._live.get(request.request_id)
        if session is not None:
            self._class_stat(request.tenant_class, "admitted")
            self._class_recorder(request.tenant_class).record(latency_ps)
            self.counters.bump("bytes_admitted", session.record.working_set)

    def on_outcome(self, request: TenantRequest, outcome: str, now: int) -> None:
        session = self._live.get(request.request_id)
        if session is None:
            return
        stats = "completed" if outcome in _CONTINUE_OUTCOMES else (
            "shed" if outcome == "rejected_slo_shed" else "failed"
        )
        self._class_stat(request.tenant_class, stats)
        self._emit(
            "complete", "sessions",
            f"{request.tenant_class}:{request.accel_type}",
            session.arrival_ps, now,
            args={"tenant": request.tenant, "outcome": outcome})
        self._finished.append((session, outcome, now))

    # -- the run -------------------------------------------------------------

    def run(self) -> GatewayResult:
        """Replay the whole trace to quiescence; every session resolves."""
        if self._submitted:
            raise SimulationError("gateway already ran; build a fresh one")
        chains = self.trace.chains()
        self._open_chains = len(chains)
        for chain in chains:
            self.connect(chain, 0, chain[0].arrival_ps)
        serve_result = self.service.serve([])
        if self._open_chains:
            raise SimulationError(
                f"{self._open_chains} session chains never resolved — a "
                "submitted session was silently lost"
            )
        if self._live:
            raise SimulationError(
                f"{len(self._live)} sessions still live after quiescence"
            )
        policy = self.service.admission_policy
        slo = None
        if policy is not None and hasattr(policy, "attainment"):
            slo = {"policy": policy.name, "classes": policy.attainment()}
        return GatewayResult(
            serve=serve_result,
            trace_name=self.trace.name,
            trace_seed=self.trace.seed,
            trace_digest=self.trace.digest(),
            sessions=len(self.trace),
            chains=len(chains),
            submitted=self._submitted,
            abandoned=self._abandoned,
            class_report=self._class_report(),
            slo=slo,
            counters=self.counters.snapshot(),
        )

    # -- per-class reporting -------------------------------------------------

    def _class_recorder(self, tenant_class: str) -> LatencyRecorder:
        recorder = self._class_latency.get(tenant_class)
        if recorder is None:
            recorder = LatencyRecorder(
                f"serve.latency.{tenant_class}", registry=self.registry
            )
            self._class_latency[tenant_class] = recorder
        return recorder

    def _class_stat(self, tenant_class: str, key: str) -> None:
        stats = self._class_counts.setdefault(tenant_class, {})
        stats[key] = stats.get(key, 0) + 1

    def _class_report(self) -> Dict[str, Dict[str, object]]:
        report: Dict[str, Dict[str, object]] = {}
        for tenant_class in sorted(self._class_counts):
            stats = dict(self._class_counts[tenant_class])
            recorder = self._class_latency.get(tenant_class)
            if recorder is not None and recorder.count:
                stats["admit_p50_ps"] = recorder.quantile_ps(0.50)
                stats["admit_p99_ps"] = recorder.quantile_ps(0.99)
            report[tenant_class] = stats
        return report


# The frozen benchmark (benchmarks/stackbench/workloads.py) imports this
# name; any FleetService takes a gateway, so it is only a binding.
GatewayFleetService = FleetService
