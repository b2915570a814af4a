"""GRN benchmark accelerator (Table 1: Gaussian RNG, 1,238 LoC, 200 MHz).

A pure producer: no input DMA at all — the circuit's LFSR + Box-Muller
pipeline generates samples and streams them to shared memory.  Its light,
write-only traffic is why a co-located MemBench keeps ~1.0x of its
bandwidth (Table 4).
"""

from __future__ import annotations

from typing import Generator

from repro.accel.base import AcceleratorJob, AcceleratorProfile, ExecutionContext
from repro.accel.streaming import REG_DST, REG_LEN, REG_PARAM0
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter
from repro.kernels.dsp import GaussianGenerator
from repro.sim.packet import CACHE_LINE_BYTES

GRN_PROFILE = AcceleratorProfile(
    name="GRN",
    description="Gaussian Random Number Generator",
    loc_verilog=1238,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=1.76, bram_pct=1.02),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=32,
    state_bytes=64,  # LFSR state + sample counter
)


class GrnJob(AcceleratorJob):
    """Generates REG_LEN bytes of float32 Gaussian samples into REG_DST."""

    profile = GRN_PROFILE
    bytes_per_cycle = 2.0  # ~0.4 GB/s write demand at 200 MHz
    tile_lines = 32
    #: A tile draws whole Box-Muller pairs, so no spare sample is live.
    state_fields = (("cursor", "Q"), ("_generator._uniform.state", "Q"))

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__()
        self.functional = functional
        self.cursor = 0
        self.bytes_out = 0
        self._generator = GaussianGenerator()

    def body(self, ctx: ExecutionContext) -> Generator:
        dst = self.reg(REG_DST)
        total = self.reg(REG_LEN)
        seed = self.reg(REG_PARAM0)
        if seed and self.cursor == 0:
            self._generator = GaussianGenerator(seed)
        tile_bytes = self.tile_lines * CACHE_LINE_BYTES
        while self.cursor < total:
            chunk = min(tile_bytes, total - self.cursor)
            # The Box-Muller pipeline produces samples at its fixed rate.
            yield ctx.cycles(chunk / self.bytes_per_cycle)
            writes = []
            for i in range(0, chunk, CACHE_LINE_BYTES):
                line = None
                if self.functional:
                    line = self._generator.block(CACHE_LINE_BYTES // 4).tobytes()
                writes.append(ctx.write(dst + self.cursor + i, line))
            yield writes
            self.cursor += chunk
            self.bytes_out += chunk
            preempted = yield from ctx.preempt_point()
            if preempted:
                return
        self.done = True

    def progress_units(self) -> int:
        return self.bytes_out
