"""Speculative epoch lookahead: grants, conflict detection, rollback.

The optimistic half of the sharded executor (DESIGN.md §9).  Two sides:

**Coordinator** — :class:`SpeculationController` is the conflict
detector.  At flush time it scans the serving loop's pending events
(:meth:`~repro.fleet.admission.FleetService.speculation_window`, which
reads the service's :class:`~repro.sim.Engine`) for the run of
departures that are *certain* to dispatch exactly as scheduled, and
grants them to the owning workers up to ``lookahead`` epochs early.
Every later op emission is interception ground: the op that proves a
speculated epoch wrong (a placement, a migration eviction, an autoscaler
cordon — anything touching a node with outstanding grants) triggers a
typed rollback *ahead of itself* in the FIFO op stream, so the worker drops the speculated evictions before
applying the conflicting truth.  The common case — the granted departure
arrives on schedule — commits by **suppression**: the coordinator simply
does not re-send the eviction the worker already holds.

**Worker** — the shard worker (:mod:`repro.parallel.shard`) receives
granted evictions early and applies them when they commit: it records
each ``spec_evict`` and applies a node's recorded evictions, in grant
order, just before the next op that reaches that node.  A rollback
only drops records, so there is nothing to undo.

Grant safety argument (why the uncontended case never rolls back): a
departure is granted only when every earlier pending event is itself a
granted departure, the admission queue is empty (so the departure's
drain places nothing), and the tenant is the sole occupant of its slot
(so eviction commutes with nothing and quiesce's remove/re-append is an
identity).  Anything else — faults, scheduled ops, retries, stale
departures, arrivals — is a speculation barrier.  Events pushed *after*
a grant (gateway follow-ups, autoscaler actions at dispatch time) are
caught by emission-time interception instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Conflict classes, keyed from the event-dispatch context the cluster's
#: ``note_event`` hook records (DESIGN.md §9).
CONFLICT_CLASSES = {
    "arrival": "admission",
    "retry": "admission",
    "departure": "late_eviction",
    "fault": "fault",
    "watchdog": "fault",
    "ops": "operation",
    "migration": "migration",
    "autoscale": "autoscale",
    "observation": "observation",
}


def conflict_class(event_kind: str) -> str:
    return CONFLICT_CLASSES.get(event_kind, event_kind or "unknown")


class SpeculationController:
    """Coordinator-side grant ledger + conflict detector.

    Tracks, per node, the evictions granted to run ahead of the serving
    clock (``{tenant: granted epoch}``, insertion order = worker
    application order).  The executor consults :meth:`intercept` on
    every regular op emission and :meth:`eligible` on every flush.
    """

    def __init__(self, lookahead: int) -> None:
        self.lookahead = lookahead
        self._outstanding: Dict[int, Dict[str, int]] = {}

    @property
    def active(self) -> bool:
        return bool(self._outstanding)

    def nodes_with_grants(self) -> List[int]:
        return list(self._outstanding)

    def eligible(self, service, cluster) -> List[Tuple[int, str, int]]:
        """New safe grants: ``[(node_index, tenant, depart_ps), ...]``.

        Consults the service's speculation window (the certain-departure
        prefix of the service engine's pending events).  A departure that cannot be granted —
        a time-shared slot, where eviction order interacts with the
        manager's run list — is a scan **barrier**, not a skip: granting
        anything past it would guarantee a conflict the moment its
        regular eviction is emitted.  Departures already granted are
        passed over (the worker already holds them) and the scan
        continues.
        """
        if self.lookahead <= 0:
            return []
        window = service.speculation_window(self.lookahead)
        grants: List[Tuple[int, str, int]] = []
        for tenant, _epoch, depart_ps in window:
            node = cluster.tenant_nodes.get(tenant)
            if node is None:  # pragma: no cover - window guarantees liveness
                break
            shadow_tenant = node.tenants[tenant]
            if node.slots.per_slot[shadow_tenant.physical_index] != 1:
                break
            if tenant in self._outstanding.get(node.index, {}):
                continue
            grants.append((node.index, tenant, depart_ps))
        return grants

    def grant(self, node_index: int, tenant: str, epoch_ps: int) -> None:
        self._outstanding.setdefault(node_index, {})[tenant] = epoch_ps

    def intercept(
        self, node_index: int, op: str, payload: tuple, epoch_now: int
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """Rule on one regular op emission against outstanding grants.

        Returns ``None`` (no grants on the node: emit as usual),
        ``("commit", (tenant,))`` (the op IS a granted eviction arriving
        exactly on schedule: suppress it), or ``("rollback", tenants)``
        (the op conflicts: drop ``tenants`` — every grant on the node,
        in application order — before emitting it).
        """
        grants = self._outstanding.get(node_index)
        if not grants:
            return None
        if op == "evict":
            tenant = payload[0]
            granted_epoch = grants.get(tenant)
            if granted_epoch is not None and granted_epoch == epoch_now:
                del grants[tenant]
                if not grants:
                    del self._outstanding[node_index]
                return ("commit", (tenant,))
        doomed = tuple(grants)
        del self._outstanding[node_index]
        return ("rollback", doomed)

    def cancel_node(self, node_index: int) -> Tuple[str, ...]:
        """Drop every grant on a node (observation-point pre-rollback)."""
        grants = self._outstanding.pop(node_index, {})
        return tuple(grants)
