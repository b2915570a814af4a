"""MD5 benchmark accelerator (Table 1: MD5, 1,266 LoC, 100 MHz).

The paper's MD5 circuit is its largest real-world benchmark (34% of ALMs
at 8 instances) and bandwidth-hungry enough that a co-located MemBench
drops to ~0.5x (Table 4) — it hashes many independent streams in parallel.
The model streams input at a high per-cycle rate and emits one 16-byte
digest per 4 KB chunk (many-stream behavior), matching both facts.  Each
chunk is hashed by :mod:`hashlib` in one call, so no hash state outlives a
chunk for a preempted job to save.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.accel.base import AcceleratorProfile, ExecutionContext
from repro.accel.streaming import REG_DST, StreamingJob
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter
from repro.sim.packet import CACHE_LINE_BYTES

MD5_PROFILE = AcceleratorProfile(
    name="MD5",
    description="MD5 Hashing Algorithm",
    loc_verilog=1266,
    freq_mhz=100.0,
    footprint=ResourceFootprint(alm_pct=4.35, bram_pct=2.82),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=448,
    state_bytes=256,  # per-lane chaining state of the parallel hasher
)

#: Input bytes hashed per digest record.
CHUNK_BYTES = 4096


class Md5Job(StreamingJob):
    """Hashes a buffer as independent 4 KB chunks (parallel-lane circuit)."""

    profile = MD5_PROFILE
    bytes_per_cycle = 71.0  # ~7.1 GB/s demand at 100 MHz: bandwidth-hungry
    output_ratio = 0.0  # digests are written in finalize()
    tile_lines = 64
    prefetch_tiles = 8  # short per-tile occupancy: fetch deep to hide latency

    def __init__(
        self, profile: Optional[AcceleratorProfile] = None, *, functional: bool = True
    ) -> None:
        super().__init__(profile, functional=functional)
        self.digests: list = []
        self._chunk = b""

    def transform(self, data: bytes, offset: int) -> bytes:
        import hashlib  # loads OpenSSL: timing-only runs never need it

        self._chunk += data
        while len(self._chunk) >= CHUNK_BYTES:
            self.digests.append(hashlib.md5(self._chunk[:CHUNK_BYTES]).digest())
            self._chunk = self._chunk[CHUNK_BYTES:]
        return data

    def finalize(self, ctx: ExecutionContext) -> Generator:
        if self.functional and self._chunk:
            import hashlib

            self.digests.append(hashlib.md5(self._chunk).digest())
            self._chunk = b""
        dst = self.reg(REG_DST)
        if dst and self.functional:
            for index, digest in enumerate(self.digests):
                record = digest + bytes(CACHE_LINE_BYTES - len(digest))
                yield ctx.write(dst + index * CACHE_LINE_BYTES, record)
        elif dst:
            n_records = max(1, self.cursor // CHUNK_BYTES)
            yield [
                ctx.write(dst + i * CACHE_LINE_BYTES)
                for i in range(min(n_records, 64))
            ]
