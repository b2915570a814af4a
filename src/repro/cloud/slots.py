"""The slot ledger: one FPGA's placement bookkeeping, kept incrementally.

The paper's provider places a tenant "spatially while free slots of that
type exist, temporally once they run out" (§3, §7.1), and every fleet
decision above it — which node a policy picks, whether a request queues,
what utilization a run integrates — reads only that bookkeeping.
:class:`SlotLedger` is the single implementation of it: a static per-type
slot index (from :attr:`FpgaConfiguration.slot_index`, built once per
configuration) plus live per-slot occupancy and per-type
``occupancy``/``free_slots`` counters maintained by :meth:`add`,
:meth:`remove` and :meth:`move`, so every read is O(1) and :meth:`pick`
scans only the slots of one type.  :meth:`report_to` has them mirror
every change into the owning cluster's :class:`OccupancyIndex` too, the
fleet-wide per-type totals and their occupancy-time integral.

:class:`~repro.cloud.provider.CloudProvider` (and the
:class:`~repro.fleet.node.FleetNode` wrapping it) and the sharded
coordinator's :class:`~repro.parallel.shadow.ShadowNode` hold this same
class, so shadow and real slot selection agree by construction.
:meth:`matches` checks it against a recount: of the provider's tenant
records after every placement, of the hypervisor's ``physical[i].vaccels``
lists at the end of a run.  Pure bookkeeping — no simulation imports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.library import FpgaConfiguration


class OccupancyIndex:
    """Per-type occupancy summed over many ledgers, integrated over time.

    ``occupancy[t]`` is the tenants on ``t`` slots over every ledger that
    reports here (:meth:`SlotLedger.report_to`), and ``now`` is the clock
    their changes are stamped with (a cluster sets it as its serving clock
    moves).  Each change of ``delta`` tenants also adds ``delta * now`` to
    ``stamped[t]``, so for any ``until_ps`` at or after the last change the
    occupancy-time integral from 0 is ``occupancy * until_ps - stamped`` —
    exact integer ps x tenants, O(1) per change and per read.
    """

    __slots__ = ("occupancy", "stamped", "now")

    def __init__(self) -> None:
        self.occupancy: Dict[str, int] = {}
        self.stamped: Dict[str, int] = {}
        self.now = 0

    def integral(self, accel_type: str, until_ps: int) -> int:
        """Tenants x ps on ``accel_type`` slots from 0 to ``until_ps``."""
        return (
            self.occupancy.get(accel_type, 0) * until_ps
            - self.stamped.get(accel_type, 0)
        )


class SlotLedger:
    """Per-slot and per-type occupancy of one :class:`FpgaConfiguration`."""

    __slots__ = ("_index", "_types", "per_slot", "_occupancy", "_free", "_fleet")

    def __init__(self, configuration: FpgaConfiguration) -> None:
        self._index: Dict[str, Tuple[int, ...]] = configuration.slot_index
        self._types: Tuple[str, ...] = tuple(configuration.slots)
        #: Tenants resident on each physical slot (read-only for callers).
        self.per_slot: List[int] = [0] * len(self._types)
        self._occupancy: Dict[str, int] = dict.fromkeys(self._index, 0)
        self._free: Dict[str, int] = {
            accel_type: len(slots) for accel_type, slots in self._index.items()
        }
        #: The owning cluster's fleet-wide index, once attached.
        self._fleet: Optional[OccupancyIndex] = None

    # -- O(1) reads -----------------------------------------------------------------

    def capacity(self, accel_type: str) -> int:
        """Physical slots of ``accel_type``."""
        return len(self._index.get(accel_type, ()))

    def occupancy(self, accel_type: str) -> int:
        """Tenants resident on ``accel_type`` slots."""
        return self._occupancy.get(accel_type, 0)

    def free_slots(self, accel_type: str) -> int:
        """Empty physical slots of ``accel_type`` (spatial headroom)."""
        return self._free.get(accel_type, 0)

    def headroom(self, accel_type: str, max_oversub: int) -> int:
        """Placements still admissible with at most ``max_oversub`` tenants
        per slot (spatial and temporal together)."""
        slots = len(self._index.get(accel_type, ()))
        return max_oversub * slots - self._occupancy.get(accel_type, 0)

    def can_place(
        self, accel_type: str, max_oversub: int, *, oversubscribe: bool = True
    ) -> bool:
        if self._free.get(accel_type, 0) > 0:
            return True
        return oversubscribe and self.headroom(accel_type, max_oversub) > 0

    # -- slot selection -------------------------------------------------------------

    def pick(self, accel_type: str) -> Optional[int]:
        """The paper's rule: the least-occupied slot of the type, ties to
        the lowest index — an empty slot while one exists, the least
        oversubscribed one after.  ``None`` when the type is not offered."""
        slots = self._index.get(accel_type)
        if not slots:
            return None
        return min(slots, key=self.per_slot.__getitem__)

    def imbalance(self, accel_type: str) -> Optional[Tuple[int, int]]:
        """The next §7.1 rebalancing move ``(busiest, idlest)`` among the
        type's slots, or ``None`` once their occupancy gap is below 2."""
        slots = self._index.get(accel_type, ())
        if not slots:
            return None
        load = self.per_slot.__getitem__
        busiest, idlest = max(slots, key=load), min(slots, key=load)
        if load(busiest) - load(idlest) < 2:
            return None
        return busiest, idlest

    # -- mutation -------------------------------------------------------------------

    def add(self, slot: int) -> None:
        """One more tenant on ``slot``."""
        accel_type = self._types[slot]
        if not self.per_slot[slot]:
            self._free[accel_type] -= 1
        self.per_slot[slot] += 1
        self._occupancy[accel_type] += 1
        fleet = self._fleet
        if fleet is not None:
            fleet.occupancy[accel_type] += 1
            fleet.stamped[accel_type] += fleet.now

    def remove(self, slot: int) -> None:
        """One tenant fewer on ``slot``."""
        if not self.per_slot[slot]:
            raise ValueError(f"slot {slot} is already empty")
        accel_type = self._types[slot]
        self.per_slot[slot] -= 1
        self._occupancy[accel_type] -= 1
        fleet = self._fleet
        if fleet is not None:
            fleet.occupancy[accel_type] -= 1
            fleet.stamped[accel_type] -= fleet.now
        if not self.per_slot[slot]:
            self._free[accel_type] += 1

    def move(self, source: int, destination: int) -> None:
        """A tenant migrated between two slots."""
        self.remove(source)
        self.add(destination)

    def report_to(self, fleet: OccupancyIndex) -> None:
        """Add what is resident now to ``fleet`` (a cluster's index over all
        its nodes, as if it arrived at ``fleet.now``), then mirror every
        change into it."""
        if self._fleet is not None:
            raise ValueError("this ledger already reports to a cluster")
        for accel_type, count in self._occupancy.items():
            fleet.occupancy[accel_type] = fleet.occupancy.get(accel_type, 0) + count
            fleet.stamped[accel_type] = (
                fleet.stamped.get(accel_type, 0) + count * fleet.now
            )
        self._fleet = fleet

    # -- verification ---------------------------------------------------------------

    def matches(self, recount: Sequence[int]) -> bool:
        """Whether the ledger equals a from-scratch recount of tenants per
        physical slot: the per-slot counts, and the per-type counters
        re-derived from them."""
        counts = list(recount)
        if counts != self.per_slot:
            return False
        for accel_type, slots in self._index.items():
            occupied = free = 0
            for i in slots:
                count = counts[i]
                occupied += count
                if not count:
                    free += 1
            if self._occupancy[accel_type] != occupied or self._free[accel_type] != free:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotLedger):
            return NotImplemented
        return (
            self._index == other._index
            and self.per_slot == other.per_slot
            and self._occupancy == other._occupancy
            and self._free == other._free
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotLedger(per_slot={self.per_slot}, free={self._free})"
