"""RSD benchmark accelerator (Table 1: Reed Solomon Decoder, 5,324 LoC)."""

from __future__ import annotations

from repro.accel.base import AcceleratorProfile
from repro.accel.streaming import StreamingJob
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter

RSD_PROFILE = AcceleratorProfile(
    name="RSD",
    description="Reed Solomon Decoder",
    loc_verilog=5324,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=2.21, bram_pct=2.87),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=96,
    state_bytes=512,  # syndrome/locator pipeline registers
)

#: Shared-memory record layout: RS(255,223) codewords padded to 256 bytes
#: (4 cache lines) so records stay line-aligned; decoded messages padded
#: likewise to 224 -> 256 bytes.
RECORD_BYTES = 256


class RsdJob(StreamingJob):
    """Decodes a stream of RS(255,223) codewords, correcting errors."""

    profile = RSD_PROFILE
    bytes_per_cycle = 12.0  # ~2.4 GB/s demand at 200 MHz
    output_ratio = 1.0  # 256-byte record in, 256-byte record out
    tile_lines = 64  # 16 records per tile

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__(functional=functional)
        self.codec = None  # built by the first ``transform``
        self.blocks_corrected = 0
        self.blocks_failed = 0

    def transform(self, data: bytes, offset: int) -> bytes:
        from repro.kernels.reed_solomon import DecodeError, ReedSolomon

        if self.codec is None:
            self.codec = ReedSolomon(255, 223)
        out = bytearray(len(data))
        for start in range(0, len(data), RECORD_BYTES):
            record = data[start : start + RECORD_BYTES]
            codeword = record[:255]
            try:
                message = self.codec.decode(codeword)
                self.blocks_corrected += 1
                failed = 0
            except DecodeError:
                message = bytes(223)  # uncorrectable: emit zeros + flag
                self.blocks_failed += 1
                failed = 1
            out[start : start + 223] = message
            out[start + RECORD_BYTES - 1] = failed
        return bytes(out)
