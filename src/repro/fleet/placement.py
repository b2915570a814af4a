"""Pluggable fleet placement policies.

Each policy answers one question: *which node takes this request?*  Slot
selection inside the chosen node then reuses the paper's logic verbatim
(:meth:`repro.cloud.provider.CloudProvider.place`): spatial while an empty
slot of the type exists, temporal onto the least-loaded slot once they run
out.  All policies spill to temporal oversubscription only after every
node's spatial capacity for the type is exhausted, and break ties by node
order so placement is deterministic.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Type

from repro.errors import ConfigurationError
from repro.fleet.node import NodeState

_load = attrgetter("load")


class PlacementPolicy:
    """Chooses the node for one request; ``None`` means fleet-saturated.

    :meth:`choose` is shared: the spatial tier (nodes with an empty slot of
    the type) and, only when that is empty, the temporal tier (nodes with
    headroom under their oversubscription cap).  Each tier is one pass over
    the nodes with one O(1) ledger read per node; a policy only says which
    candidate of a non-empty tier wins (:meth:`pick`), the first of equals.
    """

    name = "base"

    def choose(self, nodes: Sequence[NodeState], accel_type: str) -> Optional[NodeState]:
        spatial = [n for n in nodes if n.slots.free_slots(accel_type)]
        if spatial:
            return self.pick(spatial, accel_type)
        temporal = [
            n for n in nodes if n.slots.headroom(accel_type, n.max_oversub) > 0
        ]
        return self.pick(temporal, accel_type) if temporal else None

    def pick(self, candidates: List[NodeState], accel_type: str) -> NodeState:
        raise NotImplementedError


class FirstFit(PlacementPolicy):
    """The first node (in fleet order) that fits; spatial before temporal."""

    name = "first-fit"

    def pick(self, candidates: List[NodeState], accel_type: str) -> NodeState:
        return candidates[0]


class BestFit(PlacementPolicy):
    """The least-loaded node that fits; spatial before temporal."""

    name = "best-fit"

    def pick(self, candidates: List[NodeState], accel_type: str) -> NodeState:
        return min(candidates, key=_load)


class ConfigAffinity(PlacementPolicy):
    """Prefer nodes specialized for the type, spilling to temporal.

    Affinity is the type's share of a node's slots: a node synthesized with
    four AES slots out of six is a better home for AES tenants than one
    carrying a single AES slot, because its same-type pool gives the
    paper's least-loaded temporal spill more room before any tenant's
    share degrades.  Spatial placements go to the highest-affinity node
    with an empty slot; once spatial capacity for the type is gone
    fleet-wide, the spill goes to the highest-affinity node with temporal
    headroom (load breaks affinity ties).
    """

    name = "affinity"

    def pick(self, candidates: List[NodeState], accel_type: str) -> NodeState:
        return max(candidates, key=lambda n: (n.affinity(accel_type), -n.load))


POLICIES: Dict[str, Type[PlacementPolicy]] = {
    FirstFit.name: FirstFit,
    BestFit.name: BestFit,
    ConfigAffinity.name: ConfigAffinity,
}


def make_policy(name: str) -> PlacementPolicy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown placement policy {name!r}; available: {sorted(POLICIES)}"
        ) from None
