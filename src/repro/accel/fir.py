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

#: Filter length: the filter carries ``N_TAPS - 1`` samples of history.
N_TAPS = 16


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
    state_fields = StreamingJob.state_fields + (("history", f"{N_TAPS - 1}h"),)

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__(functional=functional)
        # The numpy taps are built by the first ``transform``: a job that
        # never filters (timing-only runs, the fleet) never imports numpy.
        self.taps = None
        self.history = (0,) * (N_TAPS - 1)

    def transform(self, data: bytes, offset: int) -> bytes:
        import numpy as np

        from repro.kernels.dsp import fir_filter, lowpass_taps

        if self.taps is None:
            self.taps = lowpass_taps(N_TAPS)
        samples = np.frombuffer(data, dtype=np.int16)
        padded = np.concatenate([np.array(self.history, dtype=np.int16), samples])
        filtered = fir_filter(padded, self.taps)[N_TAPS - 1:]
        self.history = tuple(padded[-(N_TAPS - 1):].tolist())
        return filtered.tobytes()
