"""SHA benchmark accelerator (Table 1: SHA512, 2,218 LoC, 200 MHz)."""

from __future__ import annotations

from typing import Generator

from repro.accel.base import AcceleratorProfile, ExecutionContext
from repro.accel.streaming import REG_DST, StreamingJob
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter

SHA_PROFILE = AcceleratorProfile(
    name="SHA",
    description="SHA512 Hashing Algorithm",
    loc_verilog=2218,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=2.16, bram_pct=2.82),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=64,
    state_bytes=128,
)


class Sha512Job(StreamingJob):
    """Computes SHA-512 over the whole input buffer, writes the digest."""

    profile = SHA_PROFILE
    bytes_per_cycle = 13.0  # ~2.6 GB/s demand at 200 MHz
    output_ratio = 0.0
    tile_lines = 64
    #: Tiles are whole 128 B blocks: between tiles the hash is its words and length.
    state_fields = StreamingJob.state_fields + (("hasher.state", "8Q"), ("hasher.length", "Q"))

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__(functional=functional)
        self._hasher = None  # built on first use
        self.digest: bytes = b""

    @property
    def hasher(self):
        """The SHA-512 engine; imports the kernel on first use."""
        if self._hasher is None:
            from repro.kernels.sha2 import Sha512

            self._hasher = Sha512()
        return self._hasher

    def transform(self, data: bytes, offset: int) -> bytes:
        self.hasher.update(data)
        return data

    def finalize(self, ctx: ExecutionContext) -> Generator:
        dst = self.reg(REG_DST)
        if self.functional:
            self.digest = self.hasher.digest()
            if dst:
                yield ctx.write(dst, self.digest + bytes(64 - len(self.digest)))
        elif dst:
            yield ctx.write(dst)
