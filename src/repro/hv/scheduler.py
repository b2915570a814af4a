"""Temporal-multiplexing scheduling policies (§5, §6.8).

OPTIMUS ships three software schedulers:

* **unweighted round-robin** — equal time slices, the default;
* **weighted** — each virtual accelerator's slice is scaled by its weight;
* **priority** — at every slice boundary, the runnable job with the
  greatest priority runs (ties broken round-robin).

All three are one policy (:class:`SchedulingPolicy`): a rotation by
vaccel id through the runnable jobs of the top priority, with a slice of
the base length times the job's weight.  A policy is a pure decision
function: given the runnable virtual accelerators it returns who runs
next and for how long.  The hypervisor's
per-physical-accelerator scheduling loop (:mod:`repro.hv.preemption`)
executes the decision, performs the context switch, and accounts actual
runtime, which §6.8 compares against each policy's expectation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError
from repro.hv.mdev import VirtualAccelerator
from repro.sim.clock import ms


class SchedulingPolicy:
    """The one temporal-multiplexing policy: rotate through the top
    priority, each vaccel for ``round(base_slice_ps x weight)``.

    Among the runnable vaccels with the greatest priority (default 0),
    :meth:`pick` takes the next vaccel id after the last pick, wrapping
    around; a vaccel's weight defaults to 1.  The three named schedulers
    below are this policy with weights, priorities or neither.
    """

    name = "base"

    def __init__(
        self,
        base_slice_ps: int = ms(10),
        *,
        weights: Optional[Dict[int, float]] = None,
        priorities: Optional[Dict[int, int]] = None,
    ) -> None:
        if base_slice_ps <= 0:
            raise SchedulerError("time slice must be positive")
        if weights and any(w <= 0 for w in weights.values()):
            raise SchedulerError("weights must be positive")
        self.base_slice_ps = base_slice_ps
        self.weights = dict(weights or {})
        self.priorities = dict(priorities or {})
        self._last_id: Optional[int] = None

    def weight_of(self, vaccel: VirtualAccelerator) -> float:
        return self.weights.get(vaccel.vaccel_id, 1.0)

    def priority_of(self, vaccel: VirtualAccelerator) -> int:
        return self.priorities.get(vaccel.vaccel_id, 0)

    def _top(self, vaccels: Sequence[VirtualAccelerator]) -> List[VirtualAccelerator]:
        top = max(self.priority_of(va) for va in vaccels)
        return [va for va in vaccels if self.priority_of(va) == top]

    def pick(
        self, runnable: Sequence[VirtualAccelerator]
    ) -> Tuple[VirtualAccelerator, int]:
        """Who runs next, and for how long."""
        if not runnable:
            raise SchedulerError("nothing runnable")
        candidates = sorted(self._top(runnable), key=lambda va: va.vaccel_id)
        last = self._last_id
        later = [va for va in candidates if last is not None and va.vaccel_id > last]
        choice = (later or candidates)[0]
        self._last_id = choice.vaccel_id
        return choice, round(self.base_slice_ps * self.weight_of(choice))

    def expected_shares(
        self, vaccels: Sequence[VirtualAccelerator]
    ) -> Dict[int, float]:
        """Fraction of physical-accelerator time each vaccel should get:
        its weight's share of the top-priority set (§6.8's expectation)."""
        winners = self._top(vaccels)
        total = sum(self.weight_of(va) for va in winners)
        shares = {va.vaccel_id: 0.0 for va in vaccels}
        for va in winners:
            shares[va.vaccel_id] = self.weight_of(va) / total
        return shares


class RoundRobinScheduler(SchedulingPolicy):
    """Unweighted round-robin: equal slices, strict rotation (the default)."""

    name = "round-robin"

    def __init__(self, time_slice_ps: int = ms(10)) -> None:
        super().__init__(time_slice_ps)


class WeightedScheduler(SchedulingPolicy):
    """Weighted time slices: vaccel ``i`` runs ``weight_i x base_slice``."""

    name = "weighted"

    def __init__(self, weights: Dict[int, float], base_slice_ps: int = ms(10)) -> None:
        super().__init__(base_slice_ps, weights=weights)


class PriorityScheduler(SchedulingPolicy):
    """Strict priority: the runnable job with the greatest priority runs.

    Equal-priority jobs share round-robin.  Starvation of low-priority
    jobs while higher ones run is the *intended* behaviour (§6.8 verifies
    the policy is enforced, not that it is pleasant).
    """

    name = "priority"

    def __init__(self, priorities: Dict[int, int], time_slice_ps: int = ms(10)) -> None:
        super().__init__(time_slice_ps, priorities=priorities)
