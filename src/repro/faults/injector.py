"""Deterministic replay of a fault plan into a fleet serving loop.

The injector never runs on a wall clock or its own thread: plan events
are scheduled on the :class:`~repro.fleet.admission.FleetService` engine and
applied inside the serving loop's simulated time, so a (plan, traffic)
pair replays byte-identically.  Target resolution for ``"auto"`` events
draws from one ``numpy.random.RandomState(plan.seed)`` in event order —
the only randomness in the whole chaos layer.

Every injected event produces one :class:`FaultRecord` pairing the event
with its **resolution**: what the fleet actually did about it (sessions
re-placed, guests quarantined, links degraded, or ``noop`` when the
target no longer exists).  The :class:`FaultLog` is the machine-readable
half of the chaos CLI's JSON envelope.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.fleet.node import NodeHealth
from repro.sim.clock import ms
from repro.telemetry import current_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.admission import FleetService


@dataclass
class FaultRecord:
    """One injected event and how the fleet resolved it."""

    at_ps: int
    kind: str
    target: str
    outcome: str
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "at_ps": self.at_ps,
            "kind": self.kind,
            "target": self.target,
            "outcome": self.outcome,
        }
        if self.details:
            payload["details"] = {k: self.details[k] for k in sorted(self.details)}
        return payload


class FaultLog:
    """Ordered record of injected events vs. recovery outcomes."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.records: List[FaultRecord] = []

    def add(self, record: FaultRecord) -> None:
        self.records.append(record)

    def digest(self) -> str:
        payload = json.dumps(
            [record.to_dict() for record in self.records], sort_keys=True
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def summary(self) -> Dict[str, object]:
        return {
            "plan": self.plan.name,
            "plan_seed": self.plan.seed,
            "plan_digest": self.plan.digest(),
            "events": [record.to_dict() for record in self.records],
            "digest": self.digest(),
        }


class FleetFaultInjector:
    """Applies a :class:`FaultPlan` inside a fleet serving loop."""

    def __init__(self, service: "FleetService", plan: FaultPlan) -> None:
        self.service = service
        self.plan = plan
        self.log = FaultLog(plan)
        self.rng = np.random.RandomState(plan.seed)
        self._tracer = current_tracer()
        self._scope = (
            self._tracer.scope("faults") if self._tracer is not None else None
        )
        self._tid = self._scope.thread("injector") if self._scope is not None else None

    # -- scheduling --------------------------------------------------------------

    def schedule(self) -> None:
        """Schedule every plan event on the service (called by serve)."""
        for event in self.plan.events:
            self.service._push(event.at_ps, "fault", event)

    # -- application -------------------------------------------------------------

    def apply(self, event: FaultEvent, now: int) -> FaultRecord:
        handler = {
            FaultKind.NODE_CRASH: self._node_crash,
            FaultKind.NODE_RECOVER: self._node_recover,
            FaultKind.LINK_DEGRADE: self._link_degrade,
            FaultKind.LINK_RESTORE: self._link_restore,
            FaultKind.GUEST_HANG: self._guest_hang,
            FaultKind.GUEST_RUNAWAY_DMA: self._guest_runaway_dma,
            FaultKind.IOTLB_THRASH: self._iotlb_thrash,
        }[event.kind]
        target, outcome, details = handler(event, now)
        record = FaultRecord(
            at_ps=now,
            kind=event.kind.value,
            target=target,
            outcome=outcome,
            details=details,
        )
        self.log.add(record)
        self.service.metrics.record_fault(
            now_ps=now, kind=record.kind, target=target, outcome=outcome
        )
        if self._scope is not None:
            self._scope.instant(
                f"fault.{record.kind}", now, tid=self._tid, cat="fault",
                args={"target": target, "outcome": outcome})
        return record

    # -- target resolution --------------------------------------------------------

    def _pick(self, pool: List[str]) -> Optional[str]:
        """One seeded draw from a deterministic (sorted) pool."""
        if not pool:
            return None
        return pool[int(self.rng.randint(len(pool)))]

    def _resolve_node(self, event: FaultEvent, *, alive_only: bool) -> Optional[str]:
        cluster = self.service.cluster
        if event.target != "auto":
            return event.target
        pool = sorted(
            node.name
            for node in cluster.nodes
            if not alive_only or node.health is not NodeHealth.DEAD
        )
        return self._pick(pool)

    def _resolve_tenant(self, event: FaultEvent) -> Optional[str]:
        if event.target != "auto":
            return event.target
        return self._pick(self.service.active_tenants())

    # -- handlers ------------------------------------------------------------------

    def _node_crash(self, event: FaultEvent, now: int):
        name = self._resolve_node(event, alive_only=True)
        if name is None:
            return event.target, "noop", {"reason": "no alive node"}
        node = self.service.cluster.node(name)
        if node.health is NodeHealth.DEAD:
            return name, "noop", {"reason": "already dead"}
        report = self.service.ops.crash(name, now=now)
        return name, "crashed", {
            "displaced": report.displaced,
            "replaced": report.replaced,
            "failed_by_fault": report.failed,
        }

    def _node_recover(self, event: FaultEvent, now: int):
        name = self._resolve_node(event, alive_only=False)
        if name is None:
            return event.target, "noop", {"reason": "no node"}
        node = self.service.cluster.node(name)
        if node.health is not NodeHealth.DEAD:
            return name, "noop", {"reason": "not dead"}
        self.service.ops.recover(name, now=now)
        return name, "recovered", {}

    def _link_degrade(self, event: FaultEvent, now: int):
        name = self._resolve_node(event, alive_only=True)
        if name is None:
            return event.target, "noop", {"reason": "no alive node"}
        node = self.service.cluster.node(name)
        if node.health is NodeHealth.DEAD:
            return name, "noop", {"reason": "dead"}
        factor = event.param("factor", 4.0)
        node.degrade(factor)
        return name, "degraded", {"factor": factor}

    def _link_restore(self, event: FaultEvent, now: int):
        name = self._resolve_node(event, alive_only=True)
        if name is None:
            return event.target, "noop", {"reason": "no alive node"}
        node = self.service.cluster.node(name)
        if node.health is NodeHealth.DEAD:
            return name, "noop", {"reason": "dead"}
        node.restore()
        return name, "restored", {}

    def _guest_hang(self, event: FaultEvent, now: int):
        tenant = self._resolve_tenant(event)
        if tenant is None:
            return event.target, "noop", {"reason": "no active session"}
        if not self.service.arm_watchdog(tenant, now):
            return tenant, "noop", {"reason": "no such session"}
        deadline = now + self.service.admission.watchdog_deadline_ps
        return tenant, "hang_armed", {"quarantine_at_ps": deadline}

    def _guest_runaway_dma(self, event: FaultEvent, now: int):
        tenant = self._resolve_tenant(event)
        if tenant is None:
            return event.target, "noop", {"reason": "no active session"}
        placement = self.service.session_placement(tenant)
        if placement is None:
            return tenant, "noop", {"reason": "no such session"}
        node_name, physical_index = placement
        dmas = int(event.param("dmas", 64))
        # The auditor fences every out-of-window access: surface the storm
        # in the same per-socket counters a real ATTACK run produces.  The
        # cluster mediates the bump so sharded execution can forward it.
        self.service.cluster.bump_auditor(
            node_name, physical_index, "dma_dropped_window", dmas
        )
        return tenant, "fenced", {
            "node": node_name, "slot": physical_index, "dmas": dmas,
        }

    def _iotlb_thrash(self, event: FaultEvent, now: int):
        name = self._resolve_node(event, alive_only=True)
        if name is None:
            return event.target, "noop", {"reason": "no alive node"}
        node = self.service.cluster.node(name)
        if node.health is NodeHealth.DEAD:
            return name, "noop", {"reason": "dead"}
        factor = event.param("factor", 2.0)
        span_ps = int(event.param("span_ps", ms(5)))
        node.degrade(factor)
        # The thrasher's effect decays once its working set stops churning:
        # schedule the restore as a synthetic plan event.
        self.service._push(
            now + span_ps,
            "fault",
            FaultEvent(
                at_ps=now + span_ps, kind=FaultKind.LINK_RESTORE, target=name
            ),
        )
        return name, "thrashing", {"factor": factor, "span_ps": span_ps}
