"""SW benchmark accelerator (Table 1: Smith Waterman, 1,265 LoC, 100 MHz).

The circuit is a systolic array: the query sequence is resident in the
array's PEs, target sequences stream through, and each target's best
local-alignment score streams out.  Shared-memory record layout: 60-byte
target sequence + 4-byte pad per cache line in, one score per record out
(packed 16 scores per output line).
"""

from __future__ import annotations

import struct

from repro.accel.base import AcceleratorProfile
from repro.accel.streaming import StreamingJob
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter

SW_PROFILE = AcceleratorProfile(
    name="SW",
    description="Smith Waterman Algorithm",
    loc_verilog=1265,
    freq_mhz=100.0,
    footprint=ResourceFootprint(alm_pct=1.42, bram_pct=1.47),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=64,
    state_bytes=256,  # anti-diagonal wavefront registers
)

TARGET_BYTES = 60  # sequence payload per 64-byte record
_BASES = "ACGT"


def decode_sequence(record: bytes) -> str:
    """Record bytes -> nucleotide string (2 bits per base would be the
    hardware encoding; bytes keep the model debuggable)."""
    return "".join(_BASES[b & 3] for b in record.rstrip(b"\x00") or b"\x00")


class SwJob(StreamingJob):
    """Scores streamed target sequences against a resident query."""

    profile = SW_PROFILE
    bytes_per_cycle = 19.0  # ~1.9 GB/s demand at 100 MHz (wide systolic array)
    output_ratio = 4 / 64  # one uint32 score per 64-byte record
    tile_lines = 64

    def __init__(self, *, query: str = "ACGTACGTACGTACGT", functional: bool = True) -> None:
        super().__init__(functional=functional)
        self.query = query
        self.scores: list = []

    def transform(self, data: bytes, offset: int) -> bytes:
        from repro.kernels.smith_waterman import best_score

        out = bytearray()
        for start in range(0, len(data), 64):
            target = decode_sequence(data[start : start + TARGET_BYTES])
            score = best_score(self.query, target)
            self.scores.append(score)
            out += struct.pack("<I", score)
        return bytes(out)
