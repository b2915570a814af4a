"""One schedulable fleet node: a ``CloudProvider`` with capacity accounting.

A node owns a complete OPTIMUS stack — an :class:`FpgaConfiguration`, the
platform built for it, and the hypervisor — exactly as the single-node
paper reproduction does.  What the fleet layer adds here is *bookkeeping*
(:class:`NodeState`): per-type capacity and spatial/temporal occupancy
read from the provider's :class:`~repro.cloud.slots.SlotLedger`, an
oversubscription cap, the health machine, and a load figure the placement
policies can compare across nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cloud.library import AcceleratorLibrary, FpgaConfiguration
from repro.cloud.provider import CloudProvider, Tenant
from repro.cloud.slots import SlotLedger
from repro.errors import ConfigurationError, SchedulerError, UnknownTenantError
from repro.hv.checkpoint import GuestCheckpoint, checkpoint_guest
from repro.mem.address import GB, MB
from repro.platform.params import PlatformParams

#: Default ceiling on tenants sharing one physical slot.  The paper's
#: temporal experiments run up to 16 virtual accelerators per physical
#: (Fig. 8); a provider keeps the depth lower so every tenant retains a
#: useful share of slot time.
DEFAULT_MAX_OVERSUB = 4


class NodeHealth(enum.Enum):
    """The fleet-level health state machine of one node.

    ``HEALTHY -> DEGRADED`` (link degradation, IOTLB thrash) and back via
    :meth:`FleetNode.restore`; ``* -> DEAD`` on :meth:`FleetNode.crash`
    and ``DEAD -> HEALTHY`` on :meth:`FleetNode.recover`.  Admission never
    routes to a DEAD node; DEGRADED nodes keep serving (optionally with a
    session slowdown, see :class:`~repro.fleet.admission.AdmissionConfig`).
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DEAD = "dead"


@dataclass(frozen=True)
class EvictedPlacement:
    """What :meth:`FleetNode.evict` returns: the placement that was undone.

    The failover re-placement path consumes these — everything needed to
    re-admit the displaced tenant elsewhere is here, with no reference to
    the (possibly dead) node's live objects.
    """

    tenant: str
    accel_type: str
    node_name: str
    physical_index: int
    oversubscribed: bool


@dataclass(frozen=True)
class NodeSpec:
    """A node's identity and accelerator mix, before synthesis."""

    name: str
    slots: Tuple[str, ...]

    @classmethod
    def of(cls, name: str, slots: Sequence[str]) -> "NodeSpec":
        return cls(name=name, slots=tuple(slots))


class NodeState:
    """Placement, capacity and health state of one fleet node.

    Everything admission and the placement policies read: a
    :class:`~repro.cloud.slots.SlotLedger`, the oversubscription cap, the
    resident tenants, the health machine and the cordon gate.  The real
    :class:`FleetNode` and the sharded coordinator's
    :class:`~repro.parallel.shadow.ShadowNode` both *are* one, so the two
    cannot disagree on a read or a slot choice; they differ only in what
    a mutation drives (the node's provider stack vs. an op emitted to the
    shard worker owning it).
    """

    def __init__(
        self,
        name: str,
        configuration: FpgaConfiguration,
        slots: SlotLedger,
        max_oversub: int,
    ) -> None:
        if max_oversub < 1:
            raise ConfigurationError("max_oversub must be >= 1")
        self.name = name
        self.configuration = configuration
        self.slots = slots
        self.max_oversub = max_oversub
        self.tenants: Dict[str, object] = {}
        self.health = NodeHealth.HEALTHY
        #: Cordoned nodes take no *new* placements (admission skips them)
        #: but keep serving their residents.  Ops verbs flip this; health
        #: is orthogonal (a HEALTHY standby node parks cordoned).
        self.cordoned = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"slots={list(self.configuration.slots)})"
        )

    # -- capacity accounting (O(1) ledger reads) --------------------------------------

    @property
    def total_slots(self) -> int:
        return self.configuration.n_slots

    def capacity(self, accel_type: str) -> int:
        """Physical slots of ``accel_type`` this node carries."""
        return self.slots.capacity(accel_type)

    def occupancy(self, accel_type: str) -> int:
        """Virtual accelerators currently resident on ``accel_type`` slots."""
        return self.slots.occupancy(accel_type)

    def free_slots(self, accel_type: str) -> int:
        """Empty physical slots of ``accel_type`` (spatial headroom)."""
        return self.slots.free_slots(accel_type)

    def headroom(self, accel_type: str) -> int:
        """Placements still admissible for ``accel_type`` (incl. temporal)."""
        return self.slots.headroom(accel_type, self.max_oversub)

    @property
    def resident(self) -> int:
        return len(self.tenants)

    @property
    def load(self) -> float:
        """Mean tenants per slot — the policies' least-loaded figure."""
        if not self.total_slots:
            return 0.0
        return self.resident / self.total_slots

    def affinity(self, accel_type: str) -> float:
        """How specialized this node is for ``accel_type`` (slot share)."""
        if not self.total_slots:
            return 0.0
        return self.capacity(accel_type) / self.total_slots

    def can_place(self, accel_type: str, *, oversubscribe: bool = True) -> bool:
        if self.health is NodeHealth.DEAD:
            return False
        return self.slots.can_place(
            accel_type, self.max_oversub, oversubscribe=oversubscribe
        )

    def utilization_by_type(self) -> Dict[str, float]:
        """Occupancy over capacity per offered type (can exceed 1.0)."""
        return {
            accel_type: self.occupancy(accel_type) / self.capacity(accel_type)
            for accel_type in sorted(self.configuration.slot_index)
        }

    # -- placement lifecycle (the checks both node kinds share) -----------------------

    def _check_admissible(self, tenant_name: str, accel_type: str) -> None:
        if tenant_name in self.tenants:
            raise ConfigurationError(f"tenant {tenant_name!r} already on {self.name}")
        if not self.can_place(accel_type):
            raise SchedulerError(
                f"node {self.name} has no headroom for {accel_type!r}"
            )

    def _pop_placement(self, tenant_name: str):
        """Drop a resident from the tenant table; return it together with
        the :class:`EvictedPlacement` describing it *before* the eviction.

        Raises :class:`~repro.errors.UnknownTenantError` (a
        ``ConfigurationError`` subclass) when the tenant is not resident —
        the defined contract every caller, including failover re-placement,
        goes through.
        """
        tenant = self.tenants.pop(tenant_name, None)
        if tenant is None:
            raise UnknownTenantError(tenant_name, f"on node {self.name}")
        return tenant, EvictedPlacement(
            tenant=tenant.name,
            accel_type=tenant.accel_type,
            node_name=self.name,
            physical_index=tenant.physical_index,
            oversubscribed=tenant.oversubscribed,
        )

    # -- health transitions ------------------------------------------------------------

    def cordon(self) -> None:
        """Stop accepting new placements; residents keep serving."""
        self.cordoned = True

    def uncordon(self) -> None:
        """Resume accepting placements."""
        self.cordoned = False

    def crash(self) -> None:
        """Mark the node DEAD.  The cluster evicts residents first (typed
        contract), so by the time the health flips, occupancy is empty."""
        self.health = NodeHealth.DEAD

    def recover(self) -> None:
        """A crashed node rejoins empty (reprovisioned from scratch)."""
        self.health = NodeHealth.HEALTHY

    def degrade(self, factor: float) -> None:
        """Mark DEGRADED (a dead node cannot degrade)."""
        if self.health is NodeHealth.DEAD:
            raise ConfigurationError(f"cannot degrade dead node {self.name}")
        self.health = NodeHealth.DEGRADED

    def restore(self) -> None:
        """DEGRADED -> HEALTHY (DEAD stays DEAD)."""
        if self.health is NodeHealth.DEGRADED:
            self.health = NodeHealth.HEALTHY


class FleetNode(NodeState):
    """One FPGA node of the fleet, wrapping a single-device provider."""

    def __init__(
        self,
        spec: NodeSpec,
        *,
        params: Optional[PlatformParams] = None,
        library: Optional[AcceleratorLibrary] = None,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
    ) -> None:
        configuration = FpgaConfiguration.synthesize(spec.slots, library=library)
        self.spec = spec
        self.provider = CloudProvider(configuration, params=params, library=library)
        # The provider's own ledger: every placement, eviction and
        # migration it performs is already accounted there.
        super().__init__(spec.name, configuration, self.provider.slots, max_oversub)

    # -- placement lifecycle -----------------------------------------------------------

    def place(
        self,
        tenant_name: str,
        accel_type: str,
        *,
        window_bytes: int = 4 * MB,
        vm_bytes: int = 1 * GB,
    ) -> Tenant:
        """Admit one tenant through the node's real provider stack."""
        self._check_admissible(tenant_name, accel_type)
        tenant = self.provider.place(
            tenant_name, accel_type, window_bytes=window_bytes, vm_bytes=vm_bytes
        )
        self.tenants[tenant_name] = tenant
        return tenant

    def evict(self, tenant_name: str) -> EvictedPlacement:
        """Remove one tenant; return the placement that was undone.  No
        other path mutates occupancy."""
        tenant, placement = self._pop_placement(tenant_name)
        self.provider.evict(tenant)
        return placement

    # -- checkpoint/restore (live migration) -------------------------------------------

    def checkpoint_tenant(self, tenant_name: str) -> GuestCheckpoint:
        """Quiesce one resident tenant and serialize it for migration.

        The tenant stays resident — pair with :meth:`evict` once the
        destination has the checkpoint (copy-then-switch, never
        destroy-then-hope).
        """
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            raise UnknownTenantError(tenant_name, f"on node {self.name}")
        return checkpoint_guest(
            self.provider.hypervisor, tenant.vaccel, accel_type=tenant.accel_type
        )

    def restore_tenant(self, checkpoint: GuestCheckpoint) -> Tenant:
        """Admit a migrated-in tenant from its checkpoint."""
        self._check_admissible(checkpoint.vm_name, checkpoint.accel_type)
        tenant = self.provider.restore(checkpoint)
        self.tenants[tenant.name] = tenant
        return tenant

    # -- health transitions ------------------------------------------------------------

    def recover(self) -> None:
        self.restore()
        super().recover()

    def degrade(self, factor: float) -> None:
        """Degrade every CPU-FPGA link by ``factor`` and mark DEGRADED."""
        if self.health is not NodeHealth.DEAD:  # a dead node raises below
            for link in self.provider.platform.links:
                link.degrade(factor)
        super().degrade(factor)

    def restore(self) -> None:
        """Links back to nominal; DEGRADED -> HEALTHY (DEAD stays DEAD)."""
        for link in self.provider.platform.links:
            link.restore()
        super().restore()

    def rebalance(self) -> int:
        """Spread oversubscribed slots via live migration (§7.1 machinery)."""
        return self.provider.rebalance()

    def check_ledger(self) -> None:
        """The oracle: raise unless the ledger equals a from-scratch
        recount of the hypervisor's per-slot vaccel lists."""
        recount = self.provider.recount()
        if not self.slots.matches(recount):
            raise RuntimeError(
                f"slot ledger of {self.name} drifted: {self.slots} vs "
                f"hypervisor recount {recount}"
            )
