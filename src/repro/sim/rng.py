"""numpy's legacy ``RandomState`` draws, bit for bit, without numpy.

Fleet traffic, serving traces, retry jitter and chaos targets are all
defined as draws from ``numpy.random.RandomState(seed)``: every shipped
digest, envelope and trace pins that stream.  Those processes need only
scalars from it, and importing numpy for them costs more start-up time
and memory than the serving loop itself.  :class:`LegacyRandomState`
reproduces the few draws they take on top of the stdlib Mersenne
Twister, which is the same MT19937 numpy's legacy generator runs:

* seeding is numpy's ``init_genrand`` (32-bit seeds only, as numpy) —
  the stdlib seeds through ``init_by_array`` instead, so the state is
  built here and installed with ``setstate``;
* ``random_sample()`` is the stdlib ``random()``: both are MT19937's
  ``genrand_res53``;
* ``exponential(scale)`` is the legacy ``scale * -log(1 - u)``;
* ``randint(low, high)`` is the legacy masked-rejection sampler;
* ``pick(cdf)`` is ``choice(n, p=p)`` over a table from
  :func:`choice_cdf`.

``tests/test_legacy_rng.py`` holds every draw to numpy itself.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence

_MASK32 = 0xFFFFFFFF
_STATE_WORDS = 624


def _pairwise_sum(values: Sequence[float]) -> float:
    """``numpy.add.reduce`` over a float64 vector, rounding step for step.

    numpy sums short vectors left to right but, from 8 elements on, keeps
    8 interleaved partial sums (and splits blocks above 128 in halves), so
    its total can differ from :func:`sum` in the last bit.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        partial = list(values[:8])
        stop = n - n % 8
        for start in range(8, stop, 8):
            for lane in range(8):
                partial[lane] += values[start + lane]
        total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
            (partial[4] + partial[5]) + (partial[6] + partial[7])
        )
        for value in values[stop:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def choice_cdf(weights: Sequence[float]) -> List[float]:
    """The table ``RandomState.choice(len(w), p=w / w.sum())`` searches.

    The weights are normalised by numpy's sum, then ``choice`` takes a
    sequential cumulative sum and divides it by its last entry, so the
    table ends at exactly 1.0.
    """
    total = _pairwise_sum(weights)
    cdf = list(accumulate(weight / total for weight in weights))
    last = cdf[-1]
    return [value / last for value in cdf]


class LegacyRandomState(random.Random):
    """The scalar draws of ``numpy.random.RandomState(seed)``.

    Pickling and ``copy.deepcopy`` keep the position in the stream:
    :class:`random.Random` rebuilds the object with no arguments and then
    restores its state.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)

    def seed(self, a: int = 0) -> None:  # type: ignore[override]
        """Reset to numpy's ``init_genrand(a)``."""
        if not 0 <= a <= _MASK32:
            raise ValueError(f"seed must be in [0, 2**32), got {a}")
        key = [a]
        for index in range(1, _STATE_WORDS):
            prev = key[-1]
            key.append((1812433253 * (prev ^ (prev >> 30)) + index) & _MASK32)
        self.setstate((3, (*key, _STATE_WORDS), None))

    def random_sample(self) -> float:
        """One uniform double in ``[0, 1)``."""
        return self.random()

    def exponential(self, scale: float = 1.0) -> float:
        return scale * -math.log(1.0 - self.random())

    def randint(self, low: int, high: Optional[int] = None) -> int:  # type: ignore[override]
        """A uniform integer in ``[low, high)`` (``[0, low)`` if one bound).

        Unlike :meth:`random.Random.randint`, ``high`` is excluded, as in
        numpy.
        """
        if high is None:
            low, high = 0, low
        if low >= high:
            raise ValueError("low >= high")
        span = high - low - 1
        if span == 0:
            return low
        draw = self.getrandbits
        if span == _MASK32:
            return low + draw(32)
        mask = (1 << span.bit_length()) - 1
        if span < _MASK32:
            value = draw(32) & mask
            while value > span:
                value = draw(32) & mask
            return low + value
        # numpy's 64-bit draw puts the first 32-bit word on top.
        value = ((draw(32) << 32) | draw(32)) & mask
        while value > span:
            value = ((draw(32) << 32) | draw(32)) & mask
        return low + value

    def pick(self, cdf: Sequence[float]) -> int:
        """One index drawn from a :func:`choice_cdf` table."""
        return bisect_right(cdf, self.random())
