"""Admission control and the fleet's event-driven serving loop.

Single-node placement (:meth:`repro.cloud.provider.CloudProvider.place`)
throws ``SchedulerError`` the moment a request cannot be honored.  A fleet
serving open-loop traffic cannot afford that: overload must degrade
*gracefully*.  :class:`FleetService` therefore fronts the cluster with:

* a **bounded queue** — requests that find no headroom wait, up to
  ``queue_limit`` of them; arrivals beyond that are rejected outright;
* **retry with exponential backoff** — each queued request re-attempts
  placement after ``backoff_ps``, doubling per attempt, and is rejected
  once ``max_retries`` attempts fail;
* **departure-driven draining** — when a session ends and frees capacity,
  the queue is scanned FIFO and every request that now fits is placed
  immediately (no head-of-line blocking across accelerator types).

The loop runs in fleet simulated time on a :class:`repro.sim.Engine` of
its own (``FleetService.engine`` — the same kernel every platform runs
on) holding arrival, retry, and departure events.  Ties break on insertion
order, so a request trace is a pure function of (traffic seed, cluster
shape, policy, admission config).  The clock is monotone: scheduling an
event before ``FleetService.now`` raises ``SimulationError``.

Fault tolerance (ISSUE 4) extends the loop with two invariants:

* **Typed outcomes** — every request terminates in exactly one outcome:
  ``completed``, ``replaced_completed`` (displaced by a node crash and
  finished elsewhere), ``failed_by_fault``, or ``rejected_*``.  Nothing
  is ever silently dropped or left hung: live sessions carry an *epoch*
  so a crash or quarantine invalidates the stale departure event instead
  of racing it.
* **Quarantine is one-way** — a tenant benched by the fleet watchdog
  (no forward progress within ``watchdog_deadline_ps``) never regains a
  slot within the serving window.

Faults enter through :meth:`FleetService.install_faults` (a
:class:`~repro.faults.plan.FaultPlan`); the injector replays the plan's
events inside this loop's simulated time, so recovery is byte-for-byte
deterministic for a given (plan, seed, traffic seed) triple.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fleet.cluster import ClusterState
from repro.fleet.metrics import FleetMetrics
from repro.fleet.node import NodeHealth
from repro.fleet.outcomes import ACCEPTED_OUTCOMES, Outcome, SERVED_OUTCOMES, rejected
from repro.fleet.placement import PlacementPolicy
from repro.fleet.traffic import TenantRequest
from repro.sim.clock import ms, us
from repro.sim.engine import untraced_engine
from repro.sim.rng import LegacyRandomState

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.autoscale import AutoscaleConfig, Autoscaler
    from repro.fleet.ops import FleetOps

#: Control-plane cost of one placement, in simulated time: VM boot,
#: mediated-device creation, window probe — dominated by trap-and-emulate
#: MMIO (~1.5 us each, §2.1); a few dozen round trips.
DEFAULT_PLACEMENT_COST_PS = us(50)

#: Failover re-placement costs more than a fresh placement: the fleet must
#: notice the crash, tear down bookkeeping, and re-drive the full placement
#: protocol on the destination node.
DEFAULT_REPLACEMENT_COST_PS = us(100)


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission controller."""

    queue_limit: int = 32
    max_retries: int = 3
    backoff_ps: int = ms(2)
    backoff_factor: float = 2.0
    placement_cost_ps: int = DEFAULT_PLACEMENT_COST_PS
    replacement_cost_ps: int = DEFAULT_REPLACEMENT_COST_PS
    #: Fleet watchdog: a hung guest is quarantined this long after the hang
    #: is injected (mirrors the hv-level GuestWatchdog deadline).
    watchdog_deadline_ps: int = ms(5)
    #: Sessions placed on a DEGRADED node run this much longer (1.0 = the
    #: default, keeps fault-free traces byte-identical to older versions).
    degraded_slowdown: float = 1.0
    #: Retry backoff jitter: each retry delay is scaled by a factor drawn
    #: uniformly from ``[1 - retry_jitter, 1 + retry_jitter]``.  ``0.0``
    #: (the default) draws nothing at all, keeping legacy traces
    #: byte-identical.  Draws come from a *per-request* RNG stream keyed
    #: on ``(jitter_seed, request_id)`` — never from a shared generator —
    #: so layering the serving gateway (or any other consumer of
    #: randomness) on top cannot perturb another request's delays.
    retry_jitter: float = 0.0
    jitter_seed: int = 0
    #: Blackout window of one live migration: quiesce at a slice boundary,
    #: checkpoint transfer, restore + shadow-table re-patch on the
    #: destination.  Charged to the migrated session's departure schedule.
    migration_cost_ps: int = us(150)

    def __post_init__(self) -> None:
        if self.queue_limit < 0 or self.max_retries < 0:
            raise ConfigurationError("queue limit and retries must be >= 0")
        if self.backoff_ps <= 0 or self.backoff_factor < 1.0:
            raise ConfigurationError("invalid backoff parameters")
        if self.watchdog_deadline_ps <= 0:
            raise ConfigurationError("watchdog deadline must be positive")
        if self.degraded_slowdown < 1.0:
            raise ConfigurationError("degraded slowdown must be >= 1")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ConfigurationError("retry jitter must be in [0, 1)")
        if self.migration_cost_ps < 0:
            raise ConfigurationError("migration cost must be >= 0")

    def backoff_for(self, attempt: int) -> int:
        """Delay before retry ``attempt`` (1-based), before jitter."""
        return int(self.backoff_ps * self.backoff_factor ** (attempt - 1))


#: Mixing constant for per-request jitter streams (golden-ratio hash).
_JITTER_MIX = 0x9E3779B1


def request_jitter_rng(jitter_seed: int, request_id: int) -> LegacyRandomState:
    """The seeded RNG stream owned by one request's retry jitter.

    Each request gets an independent ``LegacyRandomState`` (numpy's
    legacy ``RandomState`` stream) keyed on ``(jitter_seed, request_id)``,
    so the sequence of factors a request sees depends only on its own
    identity — adding or removing *other* stochastic consumers (the serve
    gateway, chaos injection, more requests) can never shift it.
    """
    return LegacyRandomState((jitter_seed * _JITTER_MIX + request_id) & 0xFFFFFFFF)


@dataclass(frozen=True)
class AdmissionDecision:
    """A typed admission verdict for one arriving request.

    ``action`` is one of ``"admit"`` (place or queue as usual),
    ``"degrade"`` (admit, but scale the session by ``session_scale`` —
    the tenant gets a trimmed slice of service), or ``"shed"`` (reject
    immediately with ``reason``, before the request touches the queue).
    """

    action: str
    reason: str = ""
    session_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.action not in ("admit", "degrade", "shed"):
            raise ConfigurationError(f"unknown admission action {self.action!r}")
        if not 0.0 < self.session_scale <= 1.0:
            raise ConfigurationError("session scale must be in (0, 1]")


#: The default verdict — shared so the hot path allocates nothing.
ADMIT = AdmissionDecision("admit")


class AdmissionPolicy:
    """Pluggable admission decision, consulted before queueing.

    The base class is the **queue-depth-only** policy the fleet has
    always run: every request is admitted, and the bounded queue plus
    the retry budget are the only backpressure.  Subclasses (e.g.
    :class:`repro.serve.slo.SloBudgetPolicy`) shed or degrade based on
    observed latency instead.  :meth:`observe` is called once per fresh
    placement with the request's admission latency, in simulated-time
    order, so online estimators stay deterministic.
    """

    name = "queue-depth"

    def decide(
        self, request: TenantRequest, now: int, service: "FleetService"
    ) -> AdmissionDecision:
        return ADMIT

    def observe(self, request: TenantRequest, latency_ps: int, now: int) -> None:
        """A fresh placement completed admission with ``latency_ps``."""

    def observe_queued(
        self, request: TenantRequest, pessimistic_ps: int, now: int
    ) -> None:
        """``request`` just queued (or re-queued after a failed retry).

        ``pessimistic_ps`` is a *lower bound* on the admission latency it
        will eventually pay: elapsed wait so far, plus the backoff just
        scheduled, plus the placement cost.  Latency-feedback policies
        should fold this in immediately — waiting for the placement to
        observe the real number means reacting one full queue-wait late.
        """


class FleetObserver:
    """The serving loop's one extension point: a passive watcher.

    :class:`FleetService` holds at most one observer and calls it from
    inside the deterministic loop, so whatever an observer does happens
    at the same simulated instants on any cluster (real or sharded).
    Every method is a no-op here; subclasses override what they need —
    the serving gateway (:class:`repro.serve.Gateway`) overrides most,
    ``capacity_des`` only :meth:`on_placed`.
    """

    def on_epoch(self, now: int) -> None:
        """The serving clock reached an event time (before its dispatch)."""

    def on_decision(
        self, request: TenantRequest, decision: AdmissionDecision, now: int
    ) -> None:
        """The admission policy ruled on an arrival."""

    def on_placed(
        self, request: TenantRequest, now: int, latency_ps: int, replaced: bool
    ) -> None:
        """A session went live on a node (fresh or failover)."""

    def on_outcome(self, request: TenantRequest, outcome: str, now: int) -> None:
        """A request reached its typed terminal outcome."""

    def on_op(self, verb: str, report: object, now: int) -> None:
        """A *scheduled* :class:`FleetOps` verb returned its typed report
        (e.g. a mid-serve drain's ``DrainReport``, which the loop itself
        discards — the fuzz oracle records checkpoint digests here)."""

    def on_drained(self, now: int) -> None:
        """The event queue emptied.  Events the observer pushes from here
        (the gateway's closed-loop follow-up arrivals) keep the loop
        serving; :meth:`on_drained` is called again after each drain."""


@dataclass
class ServeResult:
    """Outcome of one serving run."""

    metrics: FleetMetrics
    requests: int
    span_ps: int
    #: request_id -> typed outcome (completed / replaced_completed /
    #: failed_by_fault / rejected_<reason>).  Every request that entered
    #: the loop appears exactly once.
    outcomes: Dict[int, str] = field(default_factory=dict)
    #: Populated when a fault plan was installed (repro.faults).
    fault_log: Optional[object] = None

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        return dict(sorted(counts.items()))

    def availability(self) -> float:
        """Fraction of *accepted* requests that eventually completed."""
        accepted = completed = 0
        for outcome in self.outcomes.values():
            if outcome in ACCEPTED_OUTCOMES:
                accepted += 1
                if outcome in SERVED_OUTCOMES:
                    completed += 1
        return completed / accepted if accepted else 1.0

    def summary(self) -> Dict[str, object]:
        result = dict(self.metrics.summary())
        result["requests"] = self.requests
        result["span_ps"] = self.span_ps
        result["outcomes"] = self.outcome_counts()
        result["availability"] = self.availability()
        if self.fault_log is not None:
            result["fault_log"] = self.fault_log.summary()
        return result


@dataclass
class _Pending:
    request: TenantRequest
    attempts: int = 0


@dataclass
class _Session:
    """One live placement.  ``epoch`` invalidates stale queued events."""

    request: TenantRequest
    node_name: str
    physical_index: int
    epoch: int
    depart_ps: int
    replaced: bool = False
    migrated: bool = False


class FleetService:
    """Serves a request trace against a cluster under admission control."""

    def __init__(
        self,
        cluster: ClusterState,
        policy: PlacementPolicy,
        *,
        admission: Optional[AdmissionConfig] = None,
        metrics: Optional[FleetMetrics] = None,
        admission_policy: Optional[AdmissionPolicy] = None,
        observer: Optional[FleetObserver] = None,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.admission = admission or AdmissionConfig()
        self.metrics = metrics or FleetMetrics()
        #: ``None`` keeps the historical queue-depth-only behavior with
        #: zero per-arrival overhead; anything else is consulted first.
        self.admission_policy = admission_policy
        #: The event kernel.  Untraced: the fleet's trace is the ``fleet``
        #: scope :class:`FleetMetrics` owns, not engine spans.
        self.engine = untraced_engine()
        self._handlers = {
            "arrival": self._on_arrival,
            "retry": self._on_retry,
            "departure": self._on_departure,
            "watchdog": self._on_watchdog,
            "ops": self._on_ops,
        }
        self._pending: Dict[int, _Pending] = {}  # insertion order == FIFO
        self._sessions: Dict[str, _Session] = {}
        self._epoch = 0
        self._quarantined: set = set()
        self.outcomes: Dict[int, str] = {}
        self._injector = None
        self._retry_rngs: Dict[int, LegacyRandomState] = {}
        self._arrivals = 0
        #: The popped-but-not-yet-handled ``(kind, payload)``, visible to
        #: the speculation-window scan (the engine no longer holds it).
        self._dispatching: Optional[Tuple[str, object]] = None
        self._ops: Optional["FleetOps"] = None
        self.autoscaler: Optional["Autoscaler"] = None
        #: The one extension point (``None`` costs the loop nothing).
        self.observer = observer

    # -- fault installation -----------------------------------------------------------

    def install_faults(self, plan) -> object:
        """Attach a :class:`~repro.faults.plan.FaultPlan`; returns the
        injector (whose log ends up on the :class:`ServeResult`)."""
        from repro.faults.injector import FleetFaultInjector

        self._injector = FleetFaultInjector(self, plan)
        self._handlers["fault"] = self._injector.apply
        return self._injector

    # -- fleet operations (ISSUE 8) ---------------------------------------------------

    @property
    def ops(self) -> "FleetOps":
        """The typed fleet-operations API bound to this service."""
        # Lazy: repro.fleet.ops imports nothing from here at module scope,
        # but constructing eagerly in __init__ would still couple every
        # serving test to the ops module; bind on first use instead.
        if self._ops is None:
            from repro.fleet.ops import FleetOps

            self._ops = FleetOps(self)
        return self._ops

    def install_autoscaler(
        self, config: Optional["AutoscaleConfig"] = None
    ) -> "Autoscaler":
        """Attach an elastic-autoscaling control loop to the serving loop."""
        from repro.fleet.autoscale import AutoscaleConfig, Autoscaler

        self.autoscaler = Autoscaler(self, config or AutoscaleConfig())
        return self.autoscaler

    def schedule_op(self, at_ps: int, verb: str, **kwargs) -> None:
        """Schedule a :class:`FleetOps` verb at ``at_ps`` simulated time.

        The verb dispatches inside the serving loop exactly like any other
        event, so e.g. ``schedule_op(ms(3), "drain", node_name="node1")``
        is deterministic relative to arrivals and departures.
        """
        self._push(at_ps, "ops", (verb, kwargs))

    def _on_ops(self, payload, now: int) -> None:
        verb, kwargs = payload
        report = getattr(self.ops, verb)(now=now, **kwargs)
        if self.observer is not None:
            self.observer.on_op(verb, report, now)

    # -- event plumbing ---------------------------------------------------------------

    @property
    def now(self) -> int:
        """The serving clock: the time of the last event dispatched."""
        return self.engine.now

    def _push(self, time_ps: int, kind: str, payload: object) -> None:
        self.engine.call_at(time_ps, self._dispatch, kind, payload)
        if kind == "arrival":
            self._arrivals += 1

    def submit(self, request: TenantRequest) -> None:
        """Enter ``request`` into the loop at its ``arrival_ps`` — before
        :meth:`serve`, or from an observer while it runs."""
        self._push(request.arrival_ps, "arrival", request)

    # -- speculation contract (read by the sharded executor) --------------------------

    def queue_depth(self) -> int:
        """Admission-queue length (pending placements waiting for a drain)."""
        return len(self._pending)

    def speculation_window(self, max_epochs: int) -> List[Tuple[str, int, int]]:
        """The certain-departure prefix of the event sequence.

        Returns ``[(tenant, session_epoch, depart_ps), ...]`` covering at
        most ``max_epochs`` distinct event times of *consecutive*
        currently-valid departures, starting with the event being
        dispatched right now (the engine already popped it, but its ops
        have not been emitted yet — the cluster's epoch advance, which
        triggers the grant scan, runs before the event handler) and
        continuing into the engine's pending events
        (:meth:`repro.sim.Engine.peek_prefix`).  The events listed are
        exactly those guaranteed to evict exactly those tenants at exactly
        those times.  Anything else is a speculation barrier and stops the
        scan:

        * a non-departure event (arrival, retry, fault, watchdog,
          scheduled op) — its dispatch mutates arbitrary nodes; as the
          *current* event this is an empty window, since its emissions
          would conflict with any grant made this instant;
        * a stale departure (its session epoch was bumped by a watchdog
          re-arm or migration) — except as the current event, where its
          dispatch provably emits nothing and the scan continues;
        * a non-empty admission queue — a committed departure would
          drain queued placements onto the freed slot.

        Events pushed *after* a grant (gateway follow-ups, autoscaler
        actions taken at dispatch time) are not this method's problem:
        the executor catches those at emission time and rolls back.
        """
        if max_epochs <= 0 or self._pending:
            return []
        window: List[Tuple[str, int, int]] = []
        times: set = set()

        def admit(time_ps: int, tenant: str, epoch: int) -> bool:
            if time_ps not in times:
                if len(times) >= max_epochs:
                    return False
                times.add(time_ps)
            window.append((tenant, epoch, time_ps))
            return True

        current = self._dispatching
        if current is not None:
            kind, payload = current
            if kind != "departure":
                return []
            tenant, epoch = payload
            session = self._sessions.get(tenant)
            if session is not None and session.epoch == epoch:
                if not admit(self.now, tenant, epoch):
                    return window
            # A stale current departure emits nothing: scan on.
        # A bounded sorted prefix of the pending events: stopping early is
        # always safe (fewer grants), so don't pay a full sort on a deep one.
        prefix = self.engine.peek_prefix(max_epochs * 4 + 8)
        for time_ps, _seq, _fn, (kind, payload) in prefix:
            if kind != "departure":
                break
            tenant, epoch = payload
            session = self._sessions.get(tenant)
            if session is None or session.epoch != epoch:
                break
            if not admit(time_ps, tenant, epoch):
                break
        return window

    # -- the serving loop -------------------------------------------------------------

    def serve(self, requests: Sequence[TenantRequest]) -> ServeResult:
        """Run the full trace to quiescence; never raises ``SchedulerError``."""
        if self._injector is not None:
            # Faults are scheduled first so that, at equal timestamps, an
            # injected event lands before the request arriving that instant.
            self._injector.schedule()
        for request in requests:
            self.submit(request)
        self.engine.run()
        # A closed-loop observer (the serve gateway) may inject follow-up
        # arrivals while draining terminal notifications; keep looping
        # until nothing new is scheduled.
        if self.observer is not None:
            self.observer.on_drained(self.now)
            while self.engine.pending_events:
                self.engine.run()
                self.observer.on_drained(self.now)
        # Sharded: barrier on the workers, raising if any diverged.
        self.cluster.end_serve()
        self.metrics.settle_utilization()
        return ServeResult(
            metrics=self.metrics,
            requests=self._arrivals,
            span_ps=self.now,
            outcomes=dict(self.outcomes),
            fault_log=self._injector.log if self._injector is not None else None,
        )

    def _dispatch(self, kind: str, payload: object) -> None:
        """One event: the per-event prologue (before *every* event, not
        once per instant — DESIGN.md §10), then the handler for ``kind``."""
        now = self.engine.now
        self._dispatching = (kind, payload)
        self.cluster.note_event(kind, now)
        # Cluster first: a sharded one flushes completed epochs' ops
        # here, so the observer sees the same state on either cluster.
        self.cluster.advance_epoch(now, self)
        if self.observer is not None:
            self.observer.on_epoch(now)
        # Utilization integrates occupancy *before* this event's state
        # changes; the autoscaler reads the same pre-event snapshot.
        self.metrics.sample_utilization(now, self.cluster)
        if self.autoscaler is not None:
            self.autoscaler.maybe_tick(now)
        self._handlers[kind](payload, now)

    # -- event handlers ---------------------------------------------------------------

    def _on_arrival(self, request: TenantRequest, now: int) -> None:
        if self.cluster.capacity(request.accel_type) == 0:
            self._reject(request, now, "unsupported")
            return
        if self.admission_policy is not None:
            decision = self.admission_policy.decide(request, now, self)
            if self.observer is not None:
                self.observer.on_decision(request, decision, now)
            if decision.action == "shed":
                self._reject(request, now, decision.reason or "shed")
                return
            if decision.action == "degrade":
                request = dataclasses.replace(
                    request,
                    session_ps=max(
                        1, int(request.session_ps * decision.session_scale)
                    ),
                )
                self.metrics.record_degrade(
                    now_ps=now, request=request, scale=decision.session_scale
                )
        if self._try_place(request, now):
            return
        if len(self._pending) >= self.admission.queue_limit:
            self._reject(request, now, "queue_full")
            return
        self._pending[request.request_id] = _Pending(request)
        self.metrics.record_queued(
            now_ps=now, request=request, depth=len(self._pending)
        )
        self._schedule_retry(request, 1, now)

    def _on_retry(self, request_id: int, now: int) -> None:
        entry = self._pending.get(request_id)
        if entry is None:  # already placed by a departure drain
            return
        entry.attempts += 1
        self.metrics.record_retry(
            now_ps=now, request=entry.request, attempt=entry.attempts
        )
        if self._try_place(entry.request, now):
            del self._pending[request_id]
            return
        if entry.attempts >= self.admission.max_retries:
            del self._pending[request_id]
            self._reject(entry.request, now, "retries_exhausted")
            return
        self._schedule_retry(entry.request, entry.attempts + 1, now)

    def _schedule_retry(self, request: TenantRequest, attempt: int, now: int) -> None:
        """Queue retry ``attempt`` and tell the admission policy the
        latency the request is now certain to pay at least."""
        delay = self._retry_delay(request, attempt)
        if self.admission_policy is not None:
            self.admission_policy.observe_queued(
                request,
                (now - request.arrival_ps)
                + delay
                + self.admission.placement_cost_ps,
                now,
            )
        self._push(now + delay, "retry", request.request_id)

    def _retry_delay(self, request: TenantRequest, attempt: int) -> int:
        """Backoff before retry ``attempt``, jittered from the request's
        own seeded stream (``retry_jitter == 0`` draws nothing at all)."""
        delay = self.admission.backoff_for(attempt)
        jitter = self.admission.retry_jitter
        if jitter:
            rng = self._retry_rngs.get(request.request_id)
            if rng is None:
                rng = request_jitter_rng(
                    self.admission.jitter_seed, request.request_id
                )
                self._retry_rngs[request.request_id] = rng
            delay = max(
                1, int(delay * (1.0 + jitter * (2.0 * rng.random_sample() - 1.0)))
            )
        return delay

    def _on_departure(self, payload, now: int) -> None:
        tenant_name, epoch = payload
        session = self._sessions.get(tenant_name)
        if session is None or session.epoch != epoch:
            return  # stale: the session was crashed away or quarantined
        del self._sessions[tenant_name]
        self.cluster.evict(tenant_name)
        self.metrics.record_departure(now_ps=now, tenant=tenant_name)
        # Priority: replaced > migrated > completed — a session that was
        # both crash-displaced and migrated reports the rarer event.
        if session.replaced:
            outcome = Outcome.REPLACED_COMPLETED.value
        elif session.migrated:
            outcome = Outcome.MIGRATED_COMPLETED.value
        else:
            outcome = Outcome.COMPLETED.value
        self._finish(session.request, outcome, now)
        self._drain(now)

    def _on_watchdog(self, payload, now: int) -> None:
        """The fleet watchdog fires: quarantine a hung guest, free its slot."""
        tenant_name, epoch = payload
        session = self._sessions.get(tenant_name)
        if session is None or session.epoch != epoch:
            return
        del self._sessions[tenant_name]
        self.cluster.evict(tenant_name)
        self._quarantined.add(tenant_name)
        self._finish(session.request, Outcome.FAILED_BY_FAULT.value, now)
        self.metrics.record_quarantine(now_ps=now, tenant=tenant_name)
        self._drain(now)

    def _drain(self, now: int) -> None:
        # FIFO drain: place every waiting request that now fits.  Requests
        # for still-saturated types stay queued without blocking others.
        for request_id in list(self._pending):
            entry = self._pending[request_id]
            if self._try_place(entry.request, now):
                del self._pending[request_id]

    def _reject(self, request: TenantRequest, now: int, reason: str) -> None:
        self.metrics.record_rejection(now_ps=now, request=request, reason=reason)
        self._finish(request, rejected(reason), now)

    # -- terminal funnel --------------------------------------------------------------

    def _finish(self, request: TenantRequest, outcome: str, now: int) -> None:
        """Every request terminates exactly once, through here."""
        self.outcomes[request.request_id] = outcome
        self._retry_rngs.pop(request.request_id, None)
        if self.observer is not None:
            self.observer.on_outcome(request, outcome, now)

    # -- fault-side entry points (called by the injector) ------------------------------

    def active_tenants(self) -> List[str]:
        """Live sessions in deterministic order (injector target pool)."""
        return sorted(self._sessions)

    def session_placement(self, tenant_name: str) -> Optional[Tuple[str, int]]:
        """(node name, physical slot) of a live session, or ``None``."""
        session = self._sessions.get(tenant_name)
        if session is None:
            return None
        return session.node_name, session.physical_index

    def arm_watchdog(self, tenant_name: str, now: int) -> bool:
        """A guest-hang fault landed on ``tenant_name``: its session will
        never finish on its own.  Cancel the scheduled departure (epoch
        bump) and let the watchdog reclaim the slot after the deadline."""
        session = self._sessions.get(tenant_name)
        if session is None:
            return False
        self._epoch += 1
        session.epoch = self._epoch  # the old departure event is now stale
        self._push(
            now + self.admission.watchdog_deadline_ps,
            "watchdog",
            (tenant_name, session.epoch),
        )
        return True

    # -- placement --------------------------------------------------------------------

    def _try_place(
        self,
        request: TenantRequest,
        now: int,
        *,
        remaining_ps: Optional[int] = None,
        replaced: bool = False,
    ) -> bool:
        if request.tenant in self._quarantined:
            return False  # quarantined guests never regain a slot
        placed = self.cluster.place(request.tenant, request.accel_type, self.policy)
        if placed is None:
            return False
        node, tenant = placed
        cost = (
            self.admission.replacement_cost_ps
            if replaced
            else self.admission.placement_cost_ps
        )
        done = now + cost
        session_ps = request.session_ps if remaining_ps is None else remaining_ps
        if node.health is NodeHealth.DEGRADED:
            session_ps = int(session_ps * self.admission.degraded_slowdown)
        self._epoch += 1
        self._sessions[request.tenant] = _Session(
            request=request,
            node_name=node.name,
            physical_index=tenant.physical_index,
            epoch=self._epoch,
            depart_ps=done + session_ps,
            replaced=replaced,
        )
        if replaced:
            self.metrics.record_replacement(
                now_ps=now,
                request=request,
                node_name=node.name,
                physical_index=tenant.physical_index,
                latency_ps=cost,
            )
            latency_ps = cost
        else:
            latency_ps = done - request.arrival_ps
            self.metrics.record_placement(
                now_ps=now,
                request=request,
                node_name=node.name,
                physical_index=tenant.physical_index,
                temporal=tenant.oversubscribed,
                latency_ps=latency_ps,
            )
            if self.admission_policy is not None:
                self.admission_policy.observe(request, latency_ps, now)
        if self.observer is not None:
            self.observer.on_placed(request, now, latency_ps, replaced)
        self._push(done + session_ps, "departure", (request.tenant, self._epoch))
        return True
