"""Coordinator-side shadow bookkeeping for sharded fleet execution.

The fleet serving loop (:class:`repro.fleet.admission.FleetService`) is
pure control plane: every decision it makes — which node a policy picks,
which physical slot the provider assigns, when a session departs — reads
nothing but *bookkeeping* (per-slot occupancy counts, node health, static
capacity).  The heavyweight per-node state (platform, engine, hypervisor,
IOMMU) is only ever *written* by placements and evictions, never read
back by the loop.

That asymmetry is what makes sharding safe: the coordinator keeps a
:class:`ShadowNode` per fleet node holding the same
:class:`~repro.fleet.node.NodeState` a real
:class:`~repro.fleet.node.FleetNode` holds — one
:class:`~repro.cloud.slots.SlotLedger` (the provider's slot-selection
rule), one health machine — while the real node lives in a shard worker
that replays the identical operation stream.  Shadow and real agree by
construction; the workers still verify every placement against the
shadow's prediction as the oracle, so a divergence fails loudly instead
of silently skewing results.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.cloud.library import FpgaConfiguration
from repro.cloud.slots import SlotLedger
from repro.fleet.cluster import ClusterState
from repro.fleet.node import DEFAULT_MAX_OVERSUB, EvictedPlacement, NodeState
from repro.hv.checkpoint import GuestCheckpoint

#: An op forwarded to the shard worker owning a node: (op name, payload).
ShardOp = Tuple[str, tuple]


class ShadowTenant:
    """The coordinator's view of one placed tenant.

    ``oversubscribed`` is a live property (like the real
    :class:`~repro.cloud.provider.Tenant`): it reads the slot's *current*
    occupancy, because eviction records it at evict time, not place time.
    """

    __slots__ = ("name", "accel_type", "physical_index", "_slots")

    def __init__(
        self, name: str, accel_type: str, physical_index: int, slots: SlotLedger
    ) -> None:
        self.name = name
        self.accel_type = accel_type
        self.physical_index = physical_index
        self._slots = slots

    @property
    def oversubscribed(self) -> bool:
        return self._slots.per_slot[self.physical_index] > 1


class ShadowNode(NodeState):
    """Bookkeeping twin of one :class:`~repro.fleet.node.FleetNode`.

    Mutations forward the equivalent operation to the shard worker that
    owns the real node via ``emit`` (set by the executor); reads are
    answered locally and never block on a worker.
    """

    def __init__(
        self,
        index: int,
        name: str,
        configuration: FpgaConfiguration,
        *,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
        emit: Optional[Callable[[int, ShardOp], None]] = None,
    ) -> None:
        super().__init__(name, configuration, SlotLedger(configuration), max_oversub)
        self.index = index
        self._emit = emit or (lambda index, op: None)

    # -- placement lifecycle ---------------------------------------------------

    def _admit(self, tenant_name: str, accel_type: str) -> ShadowTenant:
        self._check_admissible(tenant_name, accel_type)
        physical_index = self.slots.pick(accel_type)
        self.slots.add(physical_index)
        tenant = ShadowTenant(tenant_name, accel_type, physical_index, self.slots)
        self.tenants[tenant_name] = tenant
        return tenant

    def place(self, tenant_name: str, accel_type: str) -> ShadowTenant:
        tenant = self._admit(tenant_name, accel_type)
        self._emit(
            self.index,
            ("place", (tenant_name, accel_type, tenant.physical_index,
                       tenant.oversubscribed)),
        )
        return tenant

    def evict(self, tenant_name: str) -> EvictedPlacement:
        tenant, placement = self._pop_placement(tenant_name)
        self.slots.remove(tenant.physical_index)
        self._emit(self.index, ("evict", (tenant_name,)))
        return placement

    def restore_tenant(self, checkpoint: GuestCheckpoint) -> ShadowTenant:
        """Same slot rule as ``place``; the checkpoint itself ships to the
        owning worker."""
        tenant = self._admit(checkpoint.vm_name, checkpoint.accel_type)
        self._emit(
            self.index,
            ("restore_tenant", (checkpoint, tenant.physical_index,
                                tenant.oversubscribed)),
        )
        return tenant

    # -- health transitions -----------------------------------------------------

    def cordon(self) -> None:
        super().cordon()
        self._emit(self.index, ("cordon", ()))

    def uncordon(self) -> None:
        super().uncordon()
        self._emit(self.index, ("uncordon", ()))

    def crash(self) -> None:
        super().crash()
        self._emit(self.index, ("crash", ()))

    def recover(self) -> None:
        super().recover()
        self._emit(self.index, ("recover", ()))

    def degrade(self, factor: float) -> None:
        super().degrade(factor)
        self._emit(self.index, ("degrade", (factor,)))

    def restore(self) -> None:
        super().restore()
        self._emit(self.index, ("restore", ()))


class ShadowCluster(ClusterState):
    """Bookkeeping twin of :class:`~repro.fleet.cluster.FleetCluster`.

    The shared :class:`~repro.fleet.cluster.ClusterState` surface over
    :class:`ShadowNode`s.  The executor wires ``emit`` so every mutation
    reaches the owning shard; pure reads stay local and cost no IPC.
    """

    def bump_auditor(
        self, name: str, physical_index: int, key: str, count: int
    ) -> None:
        """Forward an auditor-counter bump to the real node's monitor."""
        node = self.node(name)
        node._emit(node.index, ("bump_auditor", (physical_index, key, count)))
