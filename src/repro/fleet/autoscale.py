"""Elastic autoscaling over the typed fleet-operations API (ISSUE 8).

The control loop rides the serving loop's event clock: every fleet event,
:meth:`Autoscaler.maybe_tick` fires if at least ``interval_ps`` of
simulated time passed since the last tick, reads utilization/queue
signals, and acts through :class:`~repro.fleet.ops.FleetOps` verbs only —
the autoscaler never mutates cluster state directly, so every action is
typed, counted, and traced like an operator-issued command.

Three decisions per tick, in priority order:

1. **Proactive evacuation** — a ``DEGRADED`` node is drained (cordon +
   live-migrate every resident) *before* the chaos injector escalates the
   degradation to a crash.  Sessions that would have been displaced or
   failed by the crash instead keep running elsewhere; the node is
   re-admitted once its health returns to ``HEALTHY``.  This is what
   turns chaos experiments from "measure the damage" into "measure the
   recovery".
2. **Scale-up** — utilization at/above ``high_watermark`` or admission
   queue depth at/above ``queue_high`` commissions one parked node
   (uncordon) per tick.
3. **Scale-down** — utilization at/below ``low_watermark`` drains the
   emptiest active node and parks it, provided more than
   ``min_active_nodes`` remain.

Hysteresis comes from the watermark gap plus ``cooldown_ps`` between
scaling actions.  Every decision is a pure function of the serving loop's
deterministic event sequence — ticks happen at event timestamps, signals
are read from cluster state, and nothing draws randomness — so serial and
sharded runs produce byte-identical envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.fleet.node import NodeHealth
from repro.sim.clock import ms

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.admission import FleetService


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of the elastic-autoscaling control loop."""

    #: Minimum simulated time between control ticks.
    interval_ps: int = ms(1)
    #: Scale up at/above this fleet utilization (resident over maximum
    #: oversubscribed capacity of the active nodes).
    high_watermark: float = 0.75
    #: Scale up when the admission queue reaches this depth, regardless
    #: of utilization (queue pressure is the earlier signal).
    queue_high: int = 1
    #: Never scale below this many active (non-cordoned, alive) nodes.
    min_active_nodes: int = 1
    #: Drain DEGRADED nodes ahead of a possible crash.
    proactive_evacuation: bool = True
    #: Nodes parked (cordoned) at install time and commissioned on
    #: scale-up.  Names must exist in the cluster.
    standby_nodes: Tuple[str, ...] = ()

    #: Scale down at/below this fleet utilization.
    low_watermark: ClassVar[float] = 0.25
    #: Minimum simulated time between two scaling actions (hysteresis).
    cooldown_ps: ClassVar[int] = ms(2)

    def __post_init__(self) -> None:
        if self.interval_ps <= 0:
            raise ConfigurationError("autoscale interval must be positive")
        if not 0.0 <= self.low_watermark < self.high_watermark <= 1.0:
            raise ConfigurationError(
                "watermarks must satisfy 0 <= low < high <= 1"
            )
        if self.queue_high < 1 or self.min_active_nodes < 1:
            raise ConfigurationError("queue_high and min_active_nodes must be >= 1")


class Autoscaler:
    """The control loop; installed via ``service.install_autoscaler()``."""

    def __init__(self, service: "FleetService", config: AutoscaleConfig) -> None:
        self.service = service
        self.config = config
        #: Parked nodes: cordoned capacity held in reserve.
        self._parked: List[str] = []
        #: Nodes we drained for health reasons, to re-admit when HEALTHY.
        self._evacuating: Set[str] = set()
        self._last_tick_ps = 0
        self._last_action_ps: Optional[int] = None
        self.actions: List[Dict[str, object]] = []
        for name in config.standby_nodes:
            service.cluster.node(name)  # fail fast on unknown names
            self._park(name, now=service.now, reason="standby", record=False)

    # -- bookkeeping ------------------------------------------------------------------

    def _park(self, name: str, *, now: int, reason: str, record: bool) -> None:
        self.service.ops.cordon(name, now=now)
        if name not in self._parked:
            self._parked.append(name)
        if record:
            self._record(now, "scale_down", name, reason)

    def _record(self, now: int, action: str, node: str, reason: str) -> None:
        self.actions.append(
            {"t_ps": now, "action": action, "node": node, "reason": reason}
        )
        self.service.metrics.record_autoscale(
            now_ps=now, action=action, node=node, reason=reason
        )
        self._last_action_ps = now

    def _cooled_down(self, now: int) -> bool:
        return (
            self._last_action_ps is None
            or now - self._last_action_ps >= self.config.cooldown_ps
        )

    # -- signals ----------------------------------------------------------------------

    def _active_nodes(self):
        return [
            n
            for n in self.service.cluster.nodes
            if n.health is not NodeHealth.DEAD and not n.cordoned
        ]

    def utilization(self) -> float:
        """Residents over maximum admissible capacity of active nodes."""
        active = self._active_nodes()
        capacity = sum(n.total_slots * n.max_oversub for n in active)
        if not capacity:
            return 1.0
        return sum(n.resident for n in active) / capacity

    # -- the control loop -------------------------------------------------------------

    def maybe_tick(self, now: int) -> None:
        """Tick if at least ``interval_ps`` passed; called per loop event."""
        if now - self._last_tick_ps < self.config.interval_ps:
            return
        self._last_tick_ps = now
        # Conflict-class attribution: everything a tick emits runs under
        # the "autoscale" label (a tick-driven migration then refines it
        # to "migration"); restore the dispatching event's label after.
        cluster = self.service.cluster
        previous_label = cluster.note_event("autoscale", now)
        try:
            self._tick(now)
        finally:
            cluster.note_event(previous_label, now)

    def _tick(self, now: int) -> None:
        service = self.service
        cluster = service.cluster

        # 1. Proactive evacuation of DEGRADED nodes (no cooldown: health
        #    beats hysteresis — waiting out a cooldown risks the crash).
        if self.config.proactive_evacuation:
            for node in cluster.nodes:
                if (
                    node.health is not NodeHealth.DEGRADED
                    or node.cordoned
                    or node.name in self._evacuating
                ):
                    continue
                # Commission a parked node first so the evacuees have
                # somewhere to land.
                if self._parked:
                    commissioned = self._parked.pop(0)
                    service.ops.uncordon(commissioned, now=now)
                    self._record(now, "scale_up", commissioned, "evacuation_capacity")
                report = service.ops.drain(node.name, now=now)
                self._evacuating.add(node.name)
                self._record(
                    now,
                    "evacuate",
                    node.name,
                    f"degraded migrated={len(report.migrated)} "
                    f"remaining={len(report.remaining)}",
                )

        # 2. Re-admit evacuated nodes whose health recovered.
        for name in sorted(self._evacuating):
            node = cluster.node(name)
            if node.health is NodeHealth.HEALTHY:
                self._evacuating.discard(name)
                service.ops.uncordon(name, now=now)
                self._record(now, "readmit", name, "health_recovered")

        # 3. Elastic scaling with hysteresis.
        if not self._cooled_down(now):
            return
        util = self.utilization()
        queue_depth = len(service._pending)
        if (
            util >= self.config.high_watermark
            or queue_depth >= self.config.queue_high
        ) and self._parked:
            commissioned = self._parked.pop(0)
            service.ops.uncordon(commissioned, now=now)
            self._record(
                now,
                "scale_up",
                commissioned,
                f"util={util:.3f} queue={queue_depth}",
            )
            return
        if util <= self.config.low_watermark:
            active = self._active_nodes()
            if len(active) <= self.config.min_active_nodes:
                return
            emptiest = min(active, key=lambda n: (n.resident, n.name))
            report = service.ops.drain(emptiest.name, now=now)
            if report.remaining:
                # Residents could not all move; abort the park so the
                # stragglers' capacity stays admissible.
                service.ops.uncordon(emptiest.name, now=now)
                self._record(now, "scale_down_abort", emptiest.name, "drain_incomplete")
                return
            if emptiest.name not in self._parked:
                self._parked.append(emptiest.name)
            self._record(
                now, "scale_down", emptiest.name, f"util={util:.3f}"
            )

    # -- reporting --------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for action in self.actions:
            key = str(action["action"])
            counts[key] = counts.get(key, 0) + 1
        return {
            "actions": len(self.actions),
            "by_action": dict(sorted(counts.items())),
            "parked": sorted(self._parked),
            "evacuating": sorted(self._evacuating),
        }
