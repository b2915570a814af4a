"""``LegacyRandomState`` against ``numpy.random.RandomState``, bit for bit.

Fleet traffic, serving traces, retry jitter and chaos targets draw from
:class:`repro.sim.rng.LegacyRandomState` so those processes never load
numpy, while every shipped digest pins numpy's legacy stream.  numpy is
the oracle here: each draw must equal numpy's exactly, not approximately.
"""

import copy
import pickle
import random

import numpy as np
import pytest

from repro.sim.rng import LegacyRandomState, _pairwise_sum, choice_cdf

#: Edge seeds plus a spread over the whole 32-bit range.
SEEDS = [0, 1, 7, 2**31 - 1, 2**31, 2**32 - 1] + random.Random(2024).sample(
    range(2**32), 10
)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_is_numpys_init_genrand(seed):
    key = np.random.RandomState(seed).get_state()[1]
    assert LegacyRandomState(seed).getstate()[1][:624] == tuple(int(k) for k in key)


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_seeds_outside_32_bits_are_refused_as_numpy_does(seed):
    with pytest.raises(ValueError):
        np.random.RandomState(seed)
    with pytest.raises(ValueError):
        LegacyRandomState(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_sample_matches(seed):
    # 700 draws regenerate the 624-word state at least twice.
    expected = np.random.RandomState(seed).random_sample(700).tolist()
    rng = LegacyRandomState(seed)
    assert [rng.random_sample() for _ in range(700)] == expected


@pytest.mark.parametrize("scale", [1.0, 1e-3, 2.5e7, 3.3e12])
def test_exponential_matches(scale):
    for seed in SEEDS[:6]:
        oracle = np.random.RandomState(seed)
        rng = LegacyRandomState(seed)
        for _ in range(200):
            assert rng.exponential(scale) == oracle.exponential(scale)


@pytest.mark.parametrize(
    "span",
    [1, 2, 3, 5, 6, 1000, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32,
     2**32 + 1, 2**40 + 3, 3 * 10**12, 2**62],
)
@pytest.mark.parametrize("low", [0, 1, -17])
def test_randint_matches(span, low):
    # span 2**32 is numpy's unmasked 32-bit path; above it, 64-bit draws.
    for seed in SEEDS[:4]:
        oracle = np.random.RandomState(seed)
        rng = LegacyRandomState(seed)
        for _ in range(50):
            assert rng.randint(low, low + span) == int(oracle.randint(low, low + span))


def test_one_bound_randint_draws_from_zero():
    oracle = np.random.RandomState(3)
    rng = LegacyRandomState(3)
    for high in (1, 2, 7, 9, 2**20, 2**33):
        assert rng.randint(high) == int(oracle.randint(high))
    with pytest.raises(ValueError):
        rng.randint(5, 5)


def test_pairwise_sum_matches_numpy():
    draw = random.Random(11)
    for n in range(1, 300):
        values = [draw.uniform(1e-3, 10.0) for _ in range(n)]
        assert _pairwise_sum(values) == float(np.array(values).sum()), n


@pytest.mark.parametrize("n_weights", range(1, 21))
def test_weighted_pick_matches_choice(n_weights):
    draw = random.Random(n_weights)
    for seed in SEEDS[:4]:
        weights = [draw.uniform(1e-3, 10.0) for _ in range(n_weights)]
        p = np.array(weights) / np.array(weights).sum()
        cdf = choice_cdf(weights)
        oracle = np.random.RandomState(seed)
        rng = LegacyRandomState(seed)
        for _ in range(100):
            assert rng.pick(cdf) == int(oracle.choice(n_weights, p=p))


def test_interleaved_draws_stay_in_step():
    weights = [0.25, 0.2, 0.15, 0.15, 0.15, 0.1, 0.3, 0.7, 0.05]
    p = np.array(weights) / np.array(weights).sum()
    cdf = choice_cdf(weights)
    plan = random.Random(5)
    for seed in SEEDS:
        oracle = np.random.RandomState(seed)
        rng = LegacyRandomState(seed)
        for _ in range(300):
            kind = plan.randrange(4)
            if kind == 0:
                assert rng.random_sample() == oracle.random_sample()
            elif kind == 1:
                assert rng.exponential(4.0e9) == oracle.exponential(4.0e9)
            elif kind == 2:
                assert rng.randint(1, 2 * 10**10) == int(oracle.randint(1, 2 * 10**10))
            else:
                assert rng.pick(cdf) == int(oracle.choice(len(weights), p=p))


def test_vectorised_draws_equal_the_scalar_stream():
    # TrafficGenerator.generate_arrays draws sized arrays from numpy in
    # the same order generate() draws scalars from the legacy stream.
    weights = [3.0, 1.0, 2.0, 0.5, 0.5, 1.5, 2.5, 4.0]
    p = np.array(weights) / np.array(weights).sum()
    oracle = np.random.RandomState(13)
    gaps = oracle.exponential(1.7e6, size=400).tolist()
    picks = oracle.choice(len(weights), size=400, p=p).tolist()
    tail = oracle.random_sample(5).tolist()
    rng = LegacyRandomState(13)
    cdf = choice_cdf(weights)
    assert [rng.exponential(1.7e6) for _ in range(400)] == gaps
    assert [rng.pick(cdf) for _ in range(400)] == picks
    assert [rng.random_sample() for _ in range(5)] == tail


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda rng: pickle.loads(pickle.dumps(rng))],
    ids=["deepcopy", "pickle"],
)
def test_a_copy_resumes_mid_stream(clone):
    rng = LegacyRandomState(99)
    for _ in range(1000):  # past one state regeneration
        rng.random_sample()
    twin = clone(rng)
    assert type(twin) is LegacyRandomState
    expected = [rng.exponential(2.0) for _ in range(10)] + [rng.randint(10**9)]
    assert [twin.exponential(2.0) for _ in range(10)] + [twin.randint(10**9)] == expected
