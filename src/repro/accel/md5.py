"""MD5 benchmark accelerator (Table 1: MD5, 1,266 LoC, 100 MHz).

The paper's MD5 circuit is its largest real-world benchmark (34% of ALMs
at 8 instances) and bandwidth-hungry enough that a co-located MemBench
drops to ~0.5x (Table 4) — it hashes many independent streams in parallel.
The model streams input at a high per-cycle rate and writes one 64-byte
digest record (the digest, zero-padded) to ``REG_DST`` per 4 KB tile
(many-stream behavior), matching both facts: no hash or digest outlives a
tile for a preempted job to save.
"""

from __future__ import annotations

from repro.accel.base import AcceleratorProfile
from repro.accel.streaming import StreamingJob
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


class Md5Job(StreamingJob):
    """Hashes a buffer as independent 4 KB chunks (parallel-lane circuit)."""

    profile = MD5_PROFILE
    bytes_per_cycle = 71.0  # ~7.1 GB/s demand at 100 MHz: bandwidth-hungry
    tile_lines = 64  # one 4 KB chunk per tile...
    output_ratio = 1 / tile_lines  # ...and one line-sized record per chunk
    prefetch_tiles = 8  # short per-tile occupancy: fetch deep to hide latency

    def transform(self, data: bytes, offset: int) -> bytes:
        import hashlib  # loads OpenSSL: timing-only runs never need it

        return hashlib.md5(data).digest().ljust(CACHE_LINE_BYTES, b"\0")
