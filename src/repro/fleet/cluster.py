"""The fleet cluster: N heterogeneous OPTIMUS nodes behind one API.

A cluster owns an ordered list of :class:`~repro.fleet.node.FleetNode`
(heterogeneous ``FpgaConfiguration`` mixes are the normal case — a
provider synthesizes different bitstreams for different demand profiles)
and exposes fleet-level placement: a policy picks the node, the node's
provider picks the slot with the paper's spatial-then-temporal logic.
Tenant names are unique fleet-wide so eviction needs no node handle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.slots import OccupancyIndex
from repro.errors import ConfigurationError, UnknownTenantError
from repro.hv.checkpoint import GuestCheckpoint
from repro.fleet.node import (
    DEFAULT_MAX_OVERSUB,
    EvictedPlacement,
    FleetNode,
    NodeHealth,
    NodeSpec,
    NodeState,
)
from repro.fleet.placement import PlacementPolicy
from repro.platform.params import PlatformParams
from repro.telemetry import MetricRegistry

#: Default heterogeneous node templates, cycled when building a cluster.
#: Each is a synthesizable six-slot mix (Table 2 closes timing for eight
#: instances, so six mixed slots are comfortably feasible) biased toward a
#: different slice of the default traffic mix.
DEFAULT_TEMPLATES: Tuple[Tuple[str, ...], ...] = (
    ("AES", "AES", "SHA", "MD5", "MB", "LL"),
    ("SHA", "SHA", "AES", "FIR", "MB", "MB"),
    ("MD5", "MD5", "FIR", "AES", "LL", "LL"),
    ("FIR", "FIR", "SHA", "MD5", "MB", "AES"),
)


class ClusterState:
    """Fleet-wide bookkeeping over an ordered list of node states.

    The serving-loop surface — placement, eviction, node health, capacity
    queries — written once over :class:`~repro.fleet.node.NodeState`, so
    :class:`FleetCluster` (real nodes) and the sharded coordinator's
    :class:`~repro.parallel.shadow.ShadowCluster` (shadow nodes) share it
    instead of mirroring it.
    """

    def __init__(self, nodes: Sequence[NodeState]) -> None:
        if not nodes:
            raise ConfigurationError("a fleet needs at least one node")
        self.nodes: List[NodeState] = list(nodes)
        self._by_name: Dict[str, NodeState] = {node.name: node for node in nodes}
        if len(self._by_name) != len(self.nodes):
            raise ConfigurationError(
                f"duplicate node names: {[node.name for node in nodes]}"
            )
        self.tenant_nodes: Dict[str, NodeState] = {}
        # The node set, slot mixes and oversubscription caps are fixed, so
        # capacity and the admissible ceiling are static sums; occupancy
        # over *all* nodes, and its integral over the serving clock, is
        # kept by the nodes' ledgers from here on.
        self._capacity: Dict[str, int] = {}
        self._ceiling: Dict[str, int] = {}
        self.occupancy_index = OccupancyIndex()
        for node in self.nodes:
            for accel_type, slots in node.configuration.slot_index.items():
                self._capacity[accel_type] = (
                    self._capacity.get(accel_type, 0) + len(slots)
                )
                self._ceiling[accel_type] = (
                    self._ceiling.get(accel_type, 0) + node.max_oversub * len(slots)
                )
            node.slots.report_to(self.occupancy_index)

    # -- fleet-wide capacity ----------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return sum(node.total_slots for node in self.nodes)

    def offered_types(self) -> List[str]:
        return sorted(self._capacity)

    def capacity(self, accel_type: str) -> int:
        return self._capacity.get(accel_type, 0)

    def occupancy(self, accel_type: str) -> int:
        """Tenants on ``accel_type`` slots over all nodes (an index read)."""
        return self.occupancy_index.occupancy.get(accel_type, 0)

    @property
    def resident(self) -> int:
        return len(self.tenant_nodes)

    def check_index(self) -> None:
        """The oracle: raise unless the index equals the scan over the node
        ledgers and every slot is within its node's ``max_oversub``."""
        scanned = {
            accel_type: sum(node.slots.occupancy(accel_type) for node in self.nodes)
            for accel_type in self._capacity
        }
        capped = all(
            max(node.slots.per_slot, default=0) <= node.max_oversub for node in self.nodes
        )
        index = self.occupancy_index.occupancy
        if scanned != index or not capped:
            raise RuntimeError(
                f"fleet slot index drifted: {index} vs {scanned} "
                f"over the nodes (per-slot cap held: {capped})"
            )

    # -- placement --------------------------------------------------------------------

    def place(
        self, tenant_name: str, accel_type: str, policy: PlacementPolicy
    ) -> Optional[Tuple[NodeState, object]]:
        """Place a tenant via ``policy``; ``None`` when the fleet is full.

        DEAD nodes are invisible to the policy — admission never routes
        to a crashed node — and so are cordoned nodes (the ops-level
        admission gate: draining or parked-standby nodes take no new
        work while their residents keep serving).

        A type saturated fleet-wide is refused from the index, before any
        node is looked at.  The index counts *all* nodes, a superset of
        the policy's, so it only ever answers "definitely none" — given
        that no slot holds more than its node's ``max_oversub`` tenants
        (``SlotLedger.pick`` + ``can_place`` keep that, :meth:`check_index`
        asserts it), occupancy at the ceiling means every slot is full.
        """
        if tenant_name in self.tenant_nodes:
            raise ConfigurationError(f"tenant {tenant_name!r} already placed")
        occupancy = self.occupancy_index.occupancy.get(accel_type, 0)
        if occupancy >= self._ceiling.get(accel_type, 0):
            return None
        alive = [
            n
            for n in self.nodes
            if n.health is not NodeHealth.DEAD and not n.cordoned
        ]
        if not alive:
            return None
        node = policy.choose(alive, accel_type)
        if node is None:
            return None
        tenant = node.place(tenant_name, accel_type)
        self.tenant_nodes[tenant_name] = node
        return node, tenant

    def evict(self, tenant_name: str) -> EvictedPlacement:
        """Evict fleet-wide; returns the undone placement (typed contract).

        Raises :class:`~repro.errors.UnknownTenantError` when the tenant
        is nowhere in the fleet.
        """
        node = self.tenant_nodes.pop(tenant_name, None)
        if node is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        return node.evict(tenant_name)

    def restore_tenant(self, node_name: str, checkpoint: GuestCheckpoint):
        """Restore a checkpointed tenant onto the named node."""
        if checkpoint.vm_name in self.tenant_nodes:
            raise ConfigurationError(
                f"tenant {checkpoint.vm_name!r} already placed"
            )
        node = self.node(node_name)
        tenant = node.restore_tenant(checkpoint)
        self.tenant_nodes[checkpoint.vm_name] = node
        return tenant

    # -- node health ------------------------------------------------------------------

    def node(self, name: str) -> NodeState:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"no node {name!r} in the fleet") from None

    def cordon(self, name: str) -> NodeState:
        """Exclude a node from new placements; residents keep serving."""
        node = self.node(name)
        node.cordon()
        return node

    def uncordon(self, name: str) -> NodeState:
        node = self.node(name)
        node.uncordon()
        return node

    def _crash_node(self, name: str) -> List[EvictedPlacement]:
        """Kill a node; every resident is displaced through the typed
        evict contract (deterministic name order) and returned so the
        serving layer can re-place or cleanly fail each one.  Callers go
        through :meth:`repro.fleet.ops.FleetOps.crash`."""
        node = self.node(name)
        displaced = []
        # The node's resident set is authoritative (tenants placed directly
        # on the node are displaced too); the fleet index is cleaned along
        # the way for those the cluster placed itself.
        for tenant in sorted(node.tenants):
            self.tenant_nodes.pop(tenant, None)
            displaced.append(node.evict(tenant))
        node.crash()
        return displaced

    def recover_node(self, name: str) -> NodeState:
        node = self.node(name)
        node.recover()
        return node

    def health_report(self) -> Dict[str, str]:
        return {node.name: node.health.value for node in self.nodes}

    def note_event(self, kind: str, now: int) -> str:
        """Label the event context subsequent mutations run under.

        Returns the previous label so nested contexts (an autoscaler tick
        inside a departure dispatch, a migration inside a drain) can
        restore it.  Only the sharded executor needs the label, to
        attribute speculation rollbacks to a conflict class (DESIGN.md §9).
        """
        return ""

    # -- execution contract: the op stream when sharded --------------------------------

    def advance_epoch(self, now: int, service) -> None:
        """The serving clock reached ``now``, about to dispatch an event
        of ``service`` (whose engine a sharded speculation scan reads):
        occupancy changes from here on are stamped with ``now``."""
        self.occupancy_index.now = now

    def end_serve(self) -> None:
        """``serve()`` drained its engine: the sharded coordinator barriers
        on its workers here, raising if any diverged, and merges traces."""

    def opstream_stats(self) -> Dict[str, object]:
        """The op-stream/speculation ledger — empty without an op stream."""
        return {}

    def close(self) -> None:
        """Release execution resources (shard workers); idempotent."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FleetCluster(ClusterState):
    """An ordered fleet of real nodes with fleet-wide tenant bookkeeping."""

    def __init__(self, nodes: Sequence[FleetNode]) -> None:
        super().__init__(nodes)
        self._registry: Optional[MetricRegistry] = None

    @classmethod
    def build(
        cls,
        n_nodes: int,
        *,
        templates: Optional[Sequence[Sequence[str]]] = None,
        params: Optional[PlatformParams] = None,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
    ) -> "FleetCluster":
        """A cluster of ``n_nodes`` cycling through heterogeneous templates."""
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        templates = [tuple(t) for t in (templates or DEFAULT_TEMPLATES)]
        nodes = [
            FleetNode(
                NodeSpec.of(f"node{i}", templates[i % len(templates)]),
                params=params,
                max_oversub=max_oversub,
            )
            for i in range(n_nodes)
        ]
        return cls(nodes)

    def checkpoint_tenant(self, tenant_name: str) -> GuestCheckpoint:
        """Quiesce and serialize one tenant wherever it lives in the fleet."""
        node = self.tenant_nodes.get(tenant_name)
        if node is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        return node.checkpoint_tenant(tenant_name)

    def recover_node(self, name: str) -> FleetNode:
        node = super().recover_node(name)
        # Re-register the node's metrics with any held cluster registry:
        # recovery may hand the node a fresh provider/platform stack, and
        # a registry built before the crash would keep reading the dead
        # platform's instruments.
        if self._registry is not None:
            self._registry.unmount(f"{node.name}.")
            self._registry.mount(f"{node.name}.", node.provider.platform.metrics)
        return node

    # -- fault-side plumbing ----------------------------------------------------------

    def bump_auditor(
        self, name: str, physical_index: int, key: str, count: int
    ) -> None:
        """Bump an auditor counter on one node's monitor (fault surface).

        The injector goes through this — rather than reaching into
        ``node.provider.platform.monitor`` directly — so the sharded
        executor can forward the same op to the worker owning the node.
        """
        monitor = self.node(name).provider.platform.monitor
        if monitor is not None:
            monitor.auditors[physical_index].counters.bump(key, count)

    # -- reporting --------------------------------------------------------------------

    def metrics_registry(self) -> MetricRegistry:
        """One registry over every node's platform instruments.

        Names are prefixed with the node, so one :meth:`snapshot` covers
        the whole fleet (``node0.iommu.iotlb``, ``node1.upi0.bw.to_mem``,
        ...).  The registry is built once and cached; crash/recover cycles
        keep it pointed at each node's *live* platform (see
        :meth:`recover_node`), so holding a reference stays correct.
        """
        if self._registry is None:
            self._registry = MetricRegistry("cluster")
            for node in self.nodes:
                self._registry.mount(f"{node.name}.", node.provider.platform.metrics)
        return self._registry

    def occupancy_report(self) -> Dict[str, Dict[int, Dict[str, object]]]:
        return {node.name: node.provider.occupancy_report() for node in self.nodes}

    def simulated_report(self) -> Dict[str, Dict[str, object]]:
        """Per-node simulated time (``engine.now``), keyed by node name.

        Shape-identical to :meth:`repro.parallel.ShardedFleetCluster
        .simulated_report`, so serial and sharded envelopes byte-compare.
        """
        return {
            node.name: {"simulated_ps": node.provider.platform.engine.now}
            for node in self.nodes
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """One flat fleet-wide metric snapshot (``node<i>.<metric>``)."""
        return self.metrics_registry().snapshot()


def open_fleet(
    n_nodes: int,
    *,
    shards: int = 1,
    lookahead: int = 0,
    max_oversub: int = DEFAULT_MAX_OVERSUB,
    params: Optional[PlatformParams] = None,
    templates: Optional[Sequence[Sequence[str]]] = None,
) -> ClusterState:
    """The one way to build a fleet: ``with open_fleet(4, shards=2) as cluster``.

    Returns a :class:`FleetCluster` of real nodes, or — when there is
    something to partition (``shards > 1`` *and* more than one node; one
    worker would only add IPC) — the sharded coordinator over forked shard
    workers (:mod:`repro.parallel`, imported only then).  Either serves
    through the same :class:`~repro.fleet.admission.FleetService` with
    byte-identical results; leaving the ``with`` block stops any workers.
    ``shards``/``lookahead`` are validated whichever cluster is built.
    """
    if shards < 1:
        raise ConfigurationError("need at least one shard")
    if lookahead < 0:
        raise ConfigurationError("lookahead must be >= 0")
    if shards > 1 and n_nodes > 1:
        from repro.parallel import ShardedFleetCluster

        return ShardedFleetCluster.build(
            n_nodes,
            shards=shards,
            lookahead=lookahead,
            templates=templates,
            params=params,
            max_oversub=max_oversub,
        )
    return FleetCluster.build(
        n_nodes, templates=templates, params=params, max_oversub=max_oversub
    )
