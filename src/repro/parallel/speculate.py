"""Speculative epoch lookahead: grants, conflict detection, rollback.

The optimistic half of the sharded executor (DESIGN.md §9).  Two sides:

**Coordinator** — :class:`SpeculationController` is the conflict
detector.  At flush time it scans the serving loop's pending events
(:meth:`~repro.fleet.admission.FleetService.speculation_window`, which
reads the service's :class:`~repro.sim.Engine`) for the
run of departures that are *certain* to dispatch exactly as scheduled,
and grants the owning workers permission to apply those evictions up to
``lookahead`` epochs early.  Every later op emission is interception
ground: the op that proves a speculated epoch wrong (a placement, a
migration eviction, an autoscaler cordon — anything touching a node
with outstanding grants) triggers a typed rollback *ahead of itself* in
the FIFO op stream, so the worker unwinds speculation before applying
the conflicting truth.  The common case — the granted departure arrives
on schedule — commits by **suppression**: the coordinator simply does
not re-send the eviction the worker already performed.

**Worker** — :func:`capture_eviction_undo` snapshots the exact state a
never-started guest's eviction destroys (IOPT slice entries, list/dict
positions, slice free-list membership, handle/vaccel flags) plus a
checkpoint digest via
:class:`~repro.hv.checkpoint.IncrementalCheckpointer`;
:func:`reinstate_eviction` puts every piece back and verifies a fresh
checkpoint digests identically — a rollback that does not reproduce the
pre-eviction guest bit-for-bit fails the run loudly.

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

import heapq
from typing import Dict, List, Optional, Tuple

from repro.hv.checkpoint import IncrementalCheckpointer, checkpoint_guest

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
        passed over (their outcome is known: the worker has applied
        them) and the scan continues.
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
        (the op conflicts: unwind ``tenants`` — every grant on the node,
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


# -- worker side --------------------------------------------------------------------


class EvictionUndo:
    """Everything one speculative eviction destroyed, ready to reinstate.

    Captured against a guest that holds its slot alone and has never
    been scheduled mid-eviction (the grant conditions), whose eviction
    therefore touches exactly: the IOPT entries of its IOVA slice, four
    container positions (node tenant dict, provider tenant list,
    hypervisor vaccel list, manager vaccel list), the provider's slot
    ledger, the slice free-list, the started flag, the vaccel state, and
    the handle's connected flag.
    The original :class:`~repro.mem.page_table.PageTableEntry` *objects*
    are kept and reinstated so accessed/dirty/pinned bits survive.
    """

    __slots__ = (
        "tenant_name",
        "grant_epoch",
        "tenant",
        "vaccel",
        "vaccel_state",
        "started",
        "node_tenants_pos",
        "provider_pos",
        "hv_pos",
        "manager_pos",
        "iopt_entries",
        "digest",
    )

    def __init__(self, tenant_name: str, grant_epoch: int) -> None:
        self.tenant_name = tenant_name
        self.grant_epoch = grant_epoch


def capture_eviction_undo(
    node,
    tenant_name: str,
    grant_epoch: int,
    checkpointer: IncrementalCheckpointer,
) -> EvictionUndo:
    """Snapshot ``tenant_name`` on ``node`` just before its speculative
    eviction.  Raises if the grant conditions do not hold worker-side."""
    tenant = node.tenants.get(tenant_name)
    if tenant is None:
        raise RuntimeError(
            f"speculative eviction of unknown tenant {tenant_name!r} "
            f"on {node.name}"
        )
    hypervisor = node.provider.hypervisor
    vaccel = tenant.vaccel
    manager = hypervisor.physical[tenant.physical_index]
    if len(manager.vaccels) != 1:
        raise RuntimeError(
            f"speculative eviction of {tenant_name!r} on a time-shared "
            f"slot ({len(manager.vaccels)} residents) — the conflict "
            "detector must never grant this"
        )
    undo = EvictionUndo(tenant_name, grant_epoch)
    undo.tenant = tenant
    undo.vaccel = vaccel
    undo.vaccel_state = vaccel.state
    undo.started = hypervisor._started.get(vaccel.vaccel_id, False)
    undo.node_tenants_pos = list(node.tenants).index(tenant_name)
    undo.provider_pos = node.provider.tenants.index(tenant)
    undo.hv_pos = hypervisor.vaccels.index(vaccel)
    undo.manager_pos = manager.vaccels.index(vaccel)
    page_table = hypervisor.shadow.iommu.page_table
    first = page_table.vpn(vaccel.slice.iova_base)
    last = page_table.vpn(vaccel.slice.iova_base + vaccel.slice.size - 1)
    undo.iopt_entries = [
        (vpn, page_table._entries[vpn])
        for vpn in sorted(page_table._entries)
        if first <= vpn <= last
    ]
    undo.digest = checkpointer.checkpoint(
        hypervisor, vaccel, accel_type=tenant.accel_type
    ).digest()
    return undo


def reinstate_eviction(node, undo: EvictionUndo) -> None:
    """Put back everything :func:`capture_eviction_undo` recorded.

    Only valid while no other op has touched the node since the
    speculative eviction — which the FIFO protocol guarantees (the
    rollback op travels ahead of the conflicting op in the same stream).
    Verifies the rebuilt guest checkpoints to the captured digest.
    """
    hypervisor = node.provider.hypervisor
    tenant = undo.tenant
    vaccel = undo.vaccel
    page_table = hypervisor.shadow.iommu.page_table
    for vpn, entry in undo.iopt_entries:
        page_table._entries[vpn] = entry
    if undo.iopt_entries:
        page_table.version += 1
    manager = hypervisor.physical[tenant.physical_index]
    manager.vaccels.insert(undo.manager_pos, vaccel)
    vaccel.state = undo.vaccel_state
    hypervisor.vaccels.insert(undo.hv_pos, vaccel)
    hypervisor._free_slices.remove(vaccel.slice.index)
    heapq.heapify(hypervisor._free_slices)
    hypervisor._started[vaccel.vaccel_id] = undo.started
    tenant.handle.connected = True
    # Through the provider, so the slot ledger regains the tenant too.
    node.provider._remember(tenant, undo.provider_pos)
    items = list(node.tenants.items())
    items.insert(undo.node_tenants_pos, (undo.tenant_name, tenant))
    node.tenants.clear()
    node.tenants.update(items)
    fresh = checkpoint_guest(
        hypervisor, vaccel, accel_type=tenant.accel_type
    ).digest()
    if fresh != undo.digest:
        raise RuntimeError(
            f"rollback of {undo.tenant_name!r} on {node.name} did not "
            f"reproduce the pre-eviction guest: checkpoint digest "
            f"{fresh} != {undo.digest}"
        )
    node.check_ledger()
