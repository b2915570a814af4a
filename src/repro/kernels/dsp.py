"""Signal-processing kernels: FIR filter and Gaussian random numbers.

Functional kernels behind the FIR benchmark (Table 1: "Finite Impulse
Response Filter") and GRN (Table 1: "Gaussian Random Number Generator").

The FIR is a direct-form transversal filter over int16 samples with int16
taps and Q15-style scaling, matching what a DSP-block implementation on
the FPGA computes.  The GRN is a Box-Muller transform over a xorshift64*
uniform source, so the output stream is deterministic for a given seed —
exactly the property a hardware LFSR-based generator has.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError


def fir_filter(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Direct-form FIR: y[n] = sum_k taps[k] * x[n-k], Q15 rescaled.

    Input/output are int16; the accumulator is int64 to avoid overflow,
    then shifted back by 15 bits, as fixed-point hardware does.
    """
    if samples.dtype != np.int16 or taps.dtype != np.int16:
        raise ConfigurationError("FIR kernel expects int16 samples and taps")
    acc = np.convolve(samples.astype(np.int64), taps.astype(np.int64), mode="full")
    acc = acc[: len(samples)]  # causal part, zero-padded history
    return np.right_shift(acc, 15).clip(-32768, 32767).astype(np.int16)


@lru_cache(maxsize=32)
def _lowpass_q15(n_taps: int, cutoff: float) -> Tuple[int, ...]:
    if n_taps < 2:
        raise ConfigurationError("need at least 2 taps")
    taps: List[float] = []
    middle = (n_taps - 1) / 2.0
    for i in range(n_taps):
        x = i - middle
        ideal = 2 * cutoff * (1.0 if x == 0 else math.sin(2 * math.pi * cutoff * x) / (2 * math.pi * cutoff * x))
        window = 0.54 - 0.46 * math.cos(2 * math.pi * i / (n_taps - 1))
        taps.append(ideal * window)
    scale = sum(taps)
    return tuple(round(t / scale * 32767) for t in taps)


def lowpass_taps(n_taps: int = 16, cutoff: float = 0.25) -> np.ndarray:
    """A Hamming-windowed sinc low-pass tap set in Q15 (a fresh array per
    call; the taps themselves are computed once per ``(n_taps, cutoff)``)."""
    return np.array(_lowpass_q15(n_taps, cutoff), dtype=np.int16)


class Xorshift64Star:
    """xorshift64* PRNG — the software twin of a hardware LFSR chain."""

    MASK = 2**64 - 1

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        if seed == 0:
            raise ConfigurationError("xorshift seed must be non-zero")
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x ^= (x << 25) & self.MASK
        x ^= (x >> 27)
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & self.MASK

    def next_unit(self) -> float:
        """Uniform in (0, 1], never exactly 0 (log-safe for Box-Muller)."""
        return ((self.next_u64() >> 11) + 1) / 2**53


class GaussianGenerator:
    """Box-Muller Gaussian source with deterministic xorshift input."""

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        self._uniform = Xorshift64Star(seed)
        self._spare: float = math.nan

    def next_gaussian(self) -> float:
        if not math.isnan(self._spare):
            value, self._spare = self._spare, math.nan
            return value
        u1 = self._uniform.next_unit()
        u2 = self._uniform.next_unit()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def block(self, count: int) -> np.ndarray:
        """``count`` float32 samples, the accelerator's output format."""
        return np.array([self.next_gaussian() for _ in range(count)], dtype=np.float32)
