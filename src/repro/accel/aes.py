"""AES benchmark accelerator (Table 1: AES128, 1,965 LoC, 200 MHz)."""

from __future__ import annotations

from repro.accel.base import AcceleratorProfile
from repro.accel.streaming import REG_PARAM0, StreamingJob
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter

AES_PROFILE = AcceleratorProfile(
    name="AES",
    description="AES128 Encryption Algorithm",
    loc_verilog=1965,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=3.62, bram_pct=2.82),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=96,
    state_bytes=64,
)

#: Default key when the guest does not program REG_PARAM0/REG_PARAM1.
DEFAULT_KEY = bytes(range(16))


class AesJob(StreamingJob):
    """ECB-encrypts a buffer in shared memory."""

    profile = AES_PROFILE
    bytes_per_cycle = 10.0  # ~2.0 GB/s demand at 200 MHz
    output_ratio = 1.0
    tile_lines = 64

    def __init__(self, *, key: bytes = DEFAULT_KEY, functional: bool = True) -> None:
        super().__init__(functional=functional)
        self.key = key

    def configure(self, registers) -> None:
        super().configure(registers)
        if REG_PARAM0 in registers:
            # Guests may pass a key id; derive 16 deterministic key bytes.
            seed = registers[REG_PARAM0]
            self.key = bytes((seed >> (8 * (i % 8)) ^ i) & 0xFF for i in range(16))

    def transform(self, data: bytes, offset: int) -> bytes:
        from repro.kernels.aes128 import encrypt_ecb

        return encrypt_ecb(self.key, data)
