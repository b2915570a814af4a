"""BTC benchmark accelerator (Table 1: Bitcoin Miner, 1,009 LoC, 100 MHz).

Ported from the Open-Source-FPGA-Bitcoin-Miner: reads an 80-byte block
header from shared memory, grinds nonces with double-SHA256, and writes
back any winning nonce.  Almost pure compute — its DMA traffic is a
handful of lines, which is why Table 4 shows a co-located MemBench
keeping 1.00x of its bandwidth and Fig. 7 shows near-perfect scaling.
"""

from __future__ import annotations

import struct
from typing import Generator

from repro.accel.base import AcceleratorJob, AcceleratorProfile, ExecutionContext
from repro.accel.streaming import REG_DST, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter

BTC_PROFILE = AcceleratorProfile(
    name="BTC",
    description="Bitcoin Miner",
    loc_verilog=1009,
    freq_mhz=100.0,
    footprint=ResourceFootprint(alm_pct=1.32, bram_pct=0.48),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=8,
    state_bytes=128,  # midstate + nonce counter
)

#: Fully unrolled double-SHA256 pipelines finish one attempt per cycle per
#: pipeline; the model charges this many cycles per nonce attempt.
CYCLES_PER_ATTEMPT = 1.0

#: Attempts between preemption checks / progress updates.
ATTEMPT_BATCH = 4096


class BtcJob(AcceleratorJob):
    """Grinds nonces for the header at REG_SRC against a target.

    Registers: REG_SRC = header GVA (80 bytes), REG_DST = result GVA,
    REG_PARAM0 = leading-zero bits of the target, REG_PARAM1 = maximum
    attempts (0 = 2^32 full nonce space).
    """

    profile = BTC_PROFILE

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__()
        self.functional = functional
        self.nonce = 0
        self.attempts = 0
        self.found_nonce: int = -1
        self._header: bytes = b""

    def body(self, ctx: ExecutionContext) -> Generator:
        from repro.kernels.bitcoin import HEADER_BYTES, NONCE_OFFSET, meets_target

        src = self.reg(REG_SRC)
        dst = self.reg(REG_DST)
        zero_bits = self.reg(REG_PARAM0, 16)
        max_attempts = self.reg(REG_PARAM1, 0) or (1 << 32)
        target = 1 << (256 - zero_bits)

        if not self._header:
            # Fetch the 80-byte header (two cache lines).
            futures = [ctx.read(src), ctx.read(src + 64)]
            yield futures
            if self.functional:
                raw = b"".join((f.result() or bytes(64)) for f in futures)
                self._header = raw[:HEADER_BYTES]
            else:
                self._header = bytes(HEADER_BYTES)

        while self.attempts < max_attempts and self.found_nonce < 0:
            batch = min(ATTEMPT_BATCH, max_attempts - self.attempts)
            if self.functional:
                header = bytearray(self._header)
                for i in range(batch):
                    struct.pack_into("<I", header, NONCE_OFFSET, (self.nonce + i) & 0xFFFFFFFF)
                    if meets_target(bytes(header), target):
                        self.found_nonce = (self.nonce + i) & 0xFFFFFFFF
                        break
            yield ctx.cycles(batch * CYCLES_PER_ATTEMPT)
            self.nonce = (self.nonce + batch) & 0xFFFFFFFF
            self.attempts += batch
            preempted = yield from ctx.preempt_point()
            if preempted:
                return

        if dst:
            result = None
            if self.functional:
                result = struct.pack("<q", self.found_nonce) + bytes(56)
            yield ctx.write(dst, result)
        self.done = True

    def save_state(self) -> bytes:
        return struct.pack("<QQq", self.nonce, self.attempts, self.found_nonce)

    def restore_state(self, data: bytes) -> None:
        self.nonce, self.attempts, self.found_nonce = struct.unpack_from("<QQq", data)

    def progress_units(self) -> int:
        return self.attempts
