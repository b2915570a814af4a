"""Streaming accelerator base: read tile, compute, write tile, repeat.

Most of the HardCloud benchmarks (AES, MD5, SHA, FIR, RSD, SW, and the
image filters) are streaming pipelines: fetch a tile of input from shared
memory, push it through the datapath, emit output.  :class:`StreamingJob`
captures that shape once; each benchmark supplies a *transform* (its real
kernel), a compute rate (bytes per cycle at the circuit's clock — the
knob that sets its interconnect demand), and an output ratio.

Two execution modes:

* ``functional=True`` — tests: every byte really moves and the kernel
  really runs, so outputs can be checked against references;
* ``functional=False`` — performance experiments: the DMA pattern and all
  timing are identical, but payloads are not transformed in Python (the
  simulated platform still carries the bytes), keeping big sweeps fast.

All DMAs are single cache lines, matching CCI-P's common case and — more
importantly — the per-packet round-robin arbitration of the multiplexer
tree, which is what makes bandwidth sharing fair (§6.7).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional

from repro.accel.base import AcceleratorJob, AcceleratorProfile, ExecutionContext
from repro.errors import ConfigurationError
from repro.sim.packet import CACHE_LINE_BYTES

# Application-register offsets shared by every streaming benchmark.
REG_SRC = 0x00
REG_DST = 0x08
REG_LEN = 0x10
REG_PARAM0 = 0x18
REG_PARAM1 = 0x20


class StreamingJob(AcceleratorJob):
    """Tile-at-a-time streaming accelerator."""

    #: The input cursor; a kernel that carries state across tiles adds it.
    state_fields = (("cursor", "Q"),)

    #: Input bytes consumed per accelerator-clock cycle (demand knob).
    bytes_per_cycle: float = 8.0
    #: Output bytes produced per input byte (0 = sink, 1 = transform, ...).
    output_ratio: float = 1.0
    #: Tile size in cache lines.
    tile_lines: int = 64
    #: How many tiles the fetch unit runs ahead of the datapath.
    prefetch_tiles: int = 2
    #: Posted-write backlog allowed before the pipeline stalls (in lines).
    max_posted_writes: int = 256
    #: Cache lines per DMA request.  1 = CCI-P single-line requests (the
    #: default; finest arbitration granularity).  Long-horizon experiments
    #: (e.g. Fig. 8's tens of milliseconds) raise this to batch simulation
    #: events; the issue throttle and link serialization still charge per
    #: line, so throughput and timing are unchanged.
    lines_per_request: int = 1

    def __init__(
        self,
        profile: Optional[AcceleratorProfile] = None,
        *,
        functional: bool = True,
    ) -> None:
        super().__init__(profile)
        self.functional = functional
        self.cursor = 0  # bytes of input consumed
        self.bytes_in = 0
        self.bytes_out = 0

    # -- subclass hooks ----------------------------------------------------------

    def transform(self, data: bytes, offset: int) -> bytes:
        """The benchmark's real kernel; only called in functional mode."""
        return data

    def finalize(self, ctx: ExecutionContext) -> Generator:
        """Run after the stream is exhausted (e.g. write a digest)."""
        return
        yield  # pragma: no cover

    # -- execution ------------------------------------------------------------------

    def _issue_tile_reads(self, ctx: ExecutionContext, src: int, cursor: int, chunk: int):
        if self.lines_per_request == 1 and ctx.coalescing_enabled:
            # One burst per tile: the DMA engine either commits it on the
            # simulator fast path (per-line timing expanded analytically)
            # or splits it back into exactly the per-line reads below.
            return [ctx.read_burst(src + cursor, chunk)]
        step = self.lines_per_request * CACHE_LINE_BYTES
        return [
            ctx.read(src + cursor + offset, min(step, chunk - offset))
            for offset in range(0, chunk, step)
        ]

    def body(self, ctx: ExecutionContext) -> Generator:
        src = self.reg(REG_SRC)
        dst = self.reg(REG_DST)
        total = self.reg(REG_LEN)
        if total % CACHE_LINE_BYTES:
            raise ConfigurationError("stream length must be line-aligned")
        tile_bytes = self.tile_lines * CACHE_LINE_BYTES

        # The fetch unit runs ``prefetch_tiles`` ahead of the datapath (a
        # ping-pong line buffer in hardware), and writes are posted — the
        # pipeline only stalls on writes when the posted backlog is deep.
        tiles: Deque = deque()
        pending_writes: Deque = deque()
        issue_cursor = self.cursor

        def top_up() -> None:
            nonlocal issue_cursor
            while issue_cursor < total and len(tiles) < self.prefetch_tiles:
                chunk = min(tile_bytes, total - issue_cursor)
                tiles.append(
                    (issue_cursor, chunk, self._issue_tile_reads(ctx, src, issue_cursor, chunk))
                )
                issue_cursor += chunk

        while self.cursor < total:
            top_up()
            cursor, chunk, reads = tiles.popleft()
            yield reads

            if self.functional:
                pieces: List[bytes] = []
                for future in reads:
                    data = future.result()
                    pieces.append(data if data is not None else bytes(CACHE_LINE_BYTES))
                payload = self.transform(b"".join(pieces), cursor)
            else:
                payload = None

            # Datapath occupancy: the circuit chews the tile at its rate.
            yield ctx.cycles(chunk / self.bytes_per_cycle)

            out_bytes = int(chunk * self.output_ratio)
            if out_bytes:
                out_offset = int(cursor * self.output_ratio)
                step = self.lines_per_request * CACHE_LINE_BYTES
                for i in range(0, out_bytes, step):
                    size = min(step, out_bytes - i)
                    size = ((size + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES) * CACHE_LINE_BYTES
                    line = None
                    if payload is not None:
                        line = payload[i : i + size]
                        if len(line) < size:
                            line = line + bytes(size - len(line))
                    pending_writes.append(ctx.write(dst + out_offset + i, line, size))
                self.bytes_out += out_bytes
                while len(pending_writes) > self.max_posted_writes:
                    yield pending_writes.popleft()

            self.cursor = cursor + chunk
            self.bytes_in += chunk
            # After the last tile it finishes instead: no partial block is live.
            if ctx.preempt_requested and self.cursor < total:
                while pending_writes:
                    yield pending_writes.popleft()
                preempted = yield from ctx.preempt_point()
                if preempted:
                    return
        while pending_writes:
            yield pending_writes.popleft()
        yield from self.finalize(ctx)
        self.done = True

    def progress_units(self) -> int:
        return self.bytes_in
