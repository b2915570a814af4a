"""FIR benchmark accelerator (Table 1: FIR filter, 1,090 LoC, 200 MHz)."""

from __future__ import annotations

from repro.accel.base import AcceleratorProfile
from repro.accel.streaming import StreamingJob
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter

FIR_PROFILE = AcceleratorProfile(
    name="FIR",
    description="Finite Impulse Response Filter",
    loc_verilog=1090,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=1.92, bram_pct=2.82),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=96,
    state_bytes=64,
)


class FirJob(StreamingJob):
    """Filters an int16 sample stream with a 16-tap low-pass filter.

    A real transversal filter carries (n_taps - 1) samples of history
    across tile boundaries; the model does the same so tiled output equals
    whole-buffer filtering exactly.
    """

    profile = FIR_PROFILE
    bytes_per_cycle = 11.5  # ~2.3 GB/s demand at 200 MHz
    output_ratio = 1.0
    tile_lines = 64

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__(functional=functional)
        # The numpy taps and history are built by the first ``transform``,
        # so a job that never filters (timing-only runs, the fleet) never
        # imports numpy.
        self.taps = None
        self._history = None

    def transform(self, data: bytes, offset: int) -> bytes:
        import numpy as np

        from repro.kernels.dsp import fir_filter, lowpass_taps

        if self._history is None:
            self.taps = lowpass_taps(16)
            self._history = np.zeros(len(self.taps) - 1, dtype=np.int16)
        samples = np.frombuffer(data, dtype=np.int16)
        padded = np.concatenate([self._history, samples])
        filtered = fir_filter(padded, self.taps)[len(self._history):]
        self._history = padded[-(len(self.taps) - 1):].copy()
        return filtered.tobytes()
