"""Unit + property tests for the scheduling policies (no simulation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.hv.scheduler import PriorityScheduler, RoundRobinScheduler, WeightedScheduler
from repro.sim.clock import ms


class FakeVaccel:
    def __init__(self, vaccel_id):
        self.vaccel_id = vaccel_id


def vaccels(n):
    return [FakeVaccel(i) for i in range(n)]


class TestRoundRobin:
    def test_strict_rotation(self):
        policy = RoundRobinScheduler(ms(10))
        vas = vaccels(3)
        picks = [policy.pick(vas)[0].vaccel_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_equal_slices(self):
        policy = RoundRobinScheduler(ms(10))
        vas = vaccels(2)
        assert policy.pick(vas)[1] == ms(10)
        assert policy.pick(vas)[1] == ms(10)

    def test_skips_finished_jobs(self):
        policy = RoundRobinScheduler(ms(10))
        vas = vaccels(3)
        policy.pick(vas)  # 0
        # vaccel 1 finished: only 0 and 2 remain runnable.
        picks = [policy.pick([vas[0], vas[2]])[0].vaccel_id for _ in range(4)]
        assert picks == [2, 0, 2, 0]

    def test_expected_shares_uniform(self):
        policy = RoundRobinScheduler(ms(10))
        shares = policy.expected_shares(vaccels(4))
        assert all(s == pytest.approx(0.25) for s in shares.values())

    def test_empty_runnable_rejected(self):
        with pytest.raises(SchedulerError):
            RoundRobinScheduler(ms(10)).pick([])

    def test_invalid_slice_rejected(self):
        with pytest.raises(SchedulerError):
            RoundRobinScheduler(0)

    @given(n=st.integers(min_value=1, max_value=16), rounds=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30)
    def test_rotation_is_fair_over_whole_rounds(self, n, rounds):
        policy = RoundRobinScheduler(ms(1))
        vas = vaccels(n)
        counts = {i: 0 for i in range(n)}
        for _ in range(n * rounds):
            counts[policy.pick(vas)[0].vaccel_id] += 1
        assert all(c == rounds for c in counts.values())


class TestWeighted:
    def test_slice_scales_with_weight(self):
        policy = WeightedScheduler({0: 3.0, 1: 1.0}, ms(10))
        vas = vaccels(2)
        first = policy.pick(vas)
        second = policy.pick(vas)
        slices = {first[0].vaccel_id: first[1], second[0].vaccel_id: second[1]}
        assert slices[0] == 3 * slices[1]

    def test_unknown_vaccel_defaults_to_weight_one(self):
        policy = WeightedScheduler({0: 2.0}, ms(10))
        assert policy.weight_of(FakeVaccel(7)) == 1.0

    def test_expected_shares_proportional(self):
        policy = WeightedScheduler({0: 3.0, 1: 1.0}, ms(10))
        shares = policy.expected_shares(vaccels(2))
        assert shares[0] == pytest.approx(0.75)
        assert shares[1] == pytest.approx(0.25)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(SchedulerError):
            WeightedScheduler({0: 0.0})


class TestPriority:
    def test_highest_priority_wins(self):
        policy = PriorityScheduler({0: 1, 1: 9, 2: 5}, ms(10))
        choice, _slice = policy.pick(vaccels(3))
        assert choice.vaccel_id == 1

    def test_equal_priorities_round_robin(self):
        policy = PriorityScheduler({0: 5, 1: 5, 2: 0}, ms(10))
        vas = vaccels(3)
        picks = [policy.pick(vas)[0].vaccel_id for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_low_priority_runs_when_high_finishes(self):
        policy = PriorityScheduler({0: 9, 1: 0}, ms(10))
        vas = vaccels(2)
        assert policy.pick(vas)[0].vaccel_id == 0
        assert policy.pick([vas[1]])[0].vaccel_id == 1

    def test_expected_shares_winner_takes_all(self):
        policy = PriorityScheduler({0: 9, 1: 0, 2: 0}, ms(10))
        shares = policy.expected_shares(vaccels(3))
        assert shares[0] == 1.0
        assert shares[1] == shares[2] == 0.0

    @given(
        priorities=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=8)
    )
    @settings(max_examples=30)
    def test_pick_always_a_top_priority_vaccel(self, priorities):
        mapping = {i: p for i, p in enumerate(priorities)}
        policy = PriorityScheduler(mapping, ms(1))
        vas = vaccels(len(priorities))
        top = max(priorities)
        for _ in range(len(priorities)):
            choice, _ = policy.pick(vas)
            assert mapping[choice.vaccel_id] == top


class TestOnePolicy:
    """The three schedulers are one policy: rotate by vaccel id through the
    runnable vaccels of the top priority, each for ``round(base x weight)``."""

    @given(
        weights=st.lists(
            st.floats(min_value=0.25, max_value=4.0), min_size=1, max_size=6
        ),
        priorities=st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6),
        runnable_sets=st.lists(
            st.sets(st.integers(min_value=0, max_value=5), min_size=1),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=60)
    def test_pick_rotates_the_top_priority_by_id(self, weights, priorities, runnable_sets):
        from repro.hv.scheduler import SchedulingPolicy

        n = len(weights)
        vas = vaccels(n)
        policy = SchedulingPolicy(
            ms(10),
            weights=dict(enumerate(weights)),
            priorities=dict(enumerate(priorities[:n])),
        )
        last = None
        for ids in runnable_sets:
            runnable = [vas[i] for i in sorted(ids) if i < n] or vas
            top = max(priorities[va.vaccel_id] for va in runnable)
            candidates = [va.vaccel_id for va in runnable if priorities[va.vaccel_id] == top]
            later = [i for i in candidates if last is not None and i > last]
            choice, slice_ps = policy.pick(runnable)
            assert choice.vaccel_id == (later or candidates)[0]
            assert slice_ps == round(ms(10) * weights[choice.vaccel_id])
            last = choice.vaccel_id
        shares = policy.expected_shares(vas)
        assert sum(shares.values()) == pytest.approx(1.0)
        top = max(priorities[:n])
        assert all(
            (shares[i] > 0) == (priorities[i] == top) for i in range(n)
        )
