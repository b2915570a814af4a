"""MemBench (MB): the bandwidth microbenchmark (§6.1, 1,020 LoC, 400 MHz).

"MemBench concurrently issues random DMA read and write requests in order
to saturate HARP's bandwidth.  The random reads and writes result in the
worst-case effects of IOTLB misses."  It implements the preemption
interface, making it one of the two benchmarks used to evaluate temporal
multiplexing (Fig. 8).

Addressing: a xorshift64* stream generates line-aligned offsets within
the configured working set, so the *address pattern* (which IOTLB sets
get hit) is exact without materializing gigabytes.  The PRNG state is
part of the saved preemption state, so a resumed job continues the same
address sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.accel.base import AcceleratorJob, AcceleratorProfile, ExecutionContext
from repro.accel.streaming import REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter
from repro.kernels.dsp import Xorshift64Star
from repro.sim.packet import CACHE_LINE_BYTES

MB_PROFILE = AcceleratorProfile(
    name="MB",
    description="Random Memory Accesses",
    loc_verilog=1020,
    freq_mhz=400.0,
    footprint=ResourceFootprint(alm_pct=0.83, bram_pct=0.0),
    character=SynthesisCharacter.SIMPLE,
    max_outstanding=384,
    state_bytes=64,
)

#: REG_PARAM0 values selecting the access mode.
MODE_READ = 0
MODE_WRITE = 1
MODE_MIXED = 2

#: How many requests MemBench keeps posted per batch between preemption
#: checks; small enough that preemption latency stays in the microseconds.
BATCH_REQUESTS = 64


class MemBenchJob(AcceleratorJob):
    """Saturates the interconnect with random line-sized DMAs.

    Registers: REG_SRC = working-set base GVA, REG_LEN = working-set
    bytes, REG_PARAM0 = mode (read/write/mixed), REG_PARAM1 = total
    requests to issue (0 = effectively unbounded).
    """

    profile = MB_PROFILE
    #: §4.2: the minimal state is tiny.
    state_fields = (("ops_done", "Q"), ("rng.state", "Q"))

    def __init__(
        self,
        *,
        seed: int = 0xC0FFEE123,
        functional: bool = False,
        lines_per_request: int = 1,
        mode: int = MODE_READ,
    ) -> None:
        super().__init__()
        self.functional = functional
        self.mb_mode = mode  # default for REG_PARAM0 (harness convenience)
        self.rng = Xorshift64Star(seed)
        self.ops_done = 0
        self.bytes_done = 0
        self._since_check = 0
        # 1 = true single-line random accesses (the paper's MB).  Long
        # temporal-multiplexing runs batch lines per request to bound the
        # event count; per-line issue/serialization costs are unchanged.
        self.lines_per_request = lines_per_request

    # -- address stream -----------------------------------------------------------

    def _next_offset(self, working_set: int) -> int:
        request = self.lines_per_request * CACHE_LINE_BYTES
        slots = max(1, working_set // request)
        return (self.rng.next_u64() % slots) * request

    # -- execution ------------------------------------------------------------------

    def body(self, ctx: ExecutionContext) -> Generator:
        base = self.reg(REG_SRC)
        working_set = self.reg(REG_LEN)
        mode = self.reg(REG_PARAM0, MODE_READ)
        target_ops = self.reg(REG_PARAM1, 0) or (1 << 62)
        assert working_set >= CACHE_LINE_BYTES, "working set too small"
        issued = self.ops_done  # resume point after a preemption
        in_flight: deque = deque()
        while self.ops_done < target_ops:
            # Keep the request pipeline brim-full: issue ahead without a
            # batch barrier ("issues memory requests at every possible FPGA
            # cycle", §6.3), retiring the oldest response as needed.
            request_bytes = self.lines_per_request * CACHE_LINE_BYTES
            while issued < target_ops and len(in_flight) < 4 * self.profile.max_outstanding:
                offset = self._next_offset(working_set)
                do_write = mode == MODE_WRITE or (mode == MODE_MIXED and issued % 2)
                if do_write:
                    payload = (
                        bytes([issued & 0xFF]) * request_bytes if self.functional else None
                    )
                    in_flight.append(ctx.write(base + offset, payload, request_bytes))
                else:
                    in_flight.append(ctx.read(base + offset, request_bytes))
                issued += 1
            retire = in_flight.popleft()
            result = yield retire
            if result is not None and result is not False:
                self.ops_done += 1
                self.bytes_done += request_bytes
            else:
                issued -= 1  # dropped (preemption/reset): not real traffic
            self._since_check += 1
            if ctx.preempt_requested or self._since_check >= BATCH_REQUESTS:
                self._since_check = 0
                preempted = yield from ctx.preempt_point()
                if preempted:
                    return
        while in_flight:
            result = yield in_flight.popleft()
            if result is not None and result is not False:
                self.ops_done += 1
                self.bytes_done += self.lines_per_request * CACHE_LINE_BYTES
        self.done = True

    def progress_units(self) -> int:
        return self.ops_done
