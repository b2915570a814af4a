"""SSSP benchmark accelerator (Table 1: 3,140 LoC, 200 MHz).

A shared-memory graph engine running frontier-based Bellman-Ford over a
CSR graph resident in guest memory (ported from Zhou & Prasanna's
CPU-FPGA accelerator).  This is the paper's showcase for the
shared-memory programming model: expanding a frontier vertex requires
reading its offsets, *then* its edge list — addresses known only after
the first DMA returns, i.e. genuine pointer chasing (§2.1, Fig. 1).

Modes:

* **functional** — the graph's serialized bytes live in simulated DRAM;
  every offset and edge is read through real DMAs, and the distance array
  at ``REG_DST`` (written out before the first round, then by every
  improved-distance write) is verifiable against Dijkstra;
* **pattern** — for the paper-scale graphs (800 K vertices, up to 51 M
  edges) the CSR arrays stay in host-Python memory and the job issues the
  *same sequence of DMA addresses* without materializing gigabytes.

Memory layout (matching :meth:`repro.kernels.graph.CsrGraph.serialize`):
``offsets[n+1] (u64) || (target u32, weight u32)[m] || dist[n] (u32)``,
with the distance array at ``REG_DST``.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.accel.base import AcceleratorJob, AcceleratorProfile, ExecutionContext
from repro.accel.streaming import REG_DST, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter
from repro.mem.address import align_down
from repro.sim.packet import CACHE_LINE_BYTES

if TYPE_CHECKING:
    import numpy as np

    from repro.kernels.graph import CsrGraph

SSSP_PROFILE = AcceleratorProfile(
    name="SSSP",
    description="Single Source Shortest Path",
    loc_verilog=3140,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=1.96, bram_pct=2.82),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=96,
    state_bytes=4096,  # frontier queue head + per-pipeline registers
)


class SsspJob(AcceleratorJob):
    """Frontier Bellman-Ford over a CSR graph in shared memory.

    Registers: REG_SRC = graph image base, REG_DST = distance array base,
    REG_PARAM0 = vertex count, REG_PARAM1 = source vertex.
    """

    profile = SSSP_PROFILE
    #: Edge-processing rate of the pipeline (edges per cycle at 200 MHz).
    edges_per_cycle = 4.0
    #: Frontier vertices kept in flight by the vertex pipeline.
    pipeline_depth = 8
    #: Only the round counter: a functional job restored with ``rounds >
    #: 0`` reloads its distances from REG_DST and takes every reached
    #: vertex as its frontier (pattern mode has none there: it starts over).
    state_fields = (("rounds", "Q"),)

    def __init__(
        self,
        *,
        functional: bool = True,
        graph: Optional[CsrGraph] = None,
        pipeline_depth: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.functional = functional
        self.graph = graph  # pattern mode reads structure from here
        if pipeline_depth is not None:
            self.pipeline_depth = pipeline_depth
        self.distances: Optional[np.ndarray] = None
        self.edges_relaxed = 0
        self.rounds = 0
        self.frontier: List[int] = []

    # -- DMA helpers --------------------------------------------------------------

    #: Cache lines per edge-list fetch (the edge engine issues bursts; the
    #: per-line issue throttle and serialization keep timing identical).
    lines_per_request = 16

    def _read_lines(self, ctx: ExecutionContext, base: int, start: int, size: int):
        """Futures covering the byte range [start, start+size), in bursts."""
        first = align_down(start, CACHE_LINE_BYTES)
        end = align_down(start + size - 1, CACHE_LINE_BYTES) + CACHE_LINE_BYTES
        step = self.lines_per_request * CACHE_LINE_BYTES
        futures = [
            ctx.read(base + offset, min(step, end - offset))
            for offset in range(first, end, step)
        ]
        return futures, first

    # -- execution -------------------------------------------------------------------

    def body(self, ctx: ExecutionContext) -> Generator:
        import numpy as np

        from repro.kernels.graph import EDGE_BYTES, INFINITY, OFFSET_BYTES

        base = self.reg(REG_SRC)
        dist_base = self.reg(REG_DST)
        n_vertices = self.reg(REG_PARAM0)
        source = self.reg(REG_PARAM1)
        offsets_bytes = (n_vertices + 1) * OFFSET_BYTES
        lines = range(0, 4 * n_vertices, CACHE_LINE_BYTES)  # the distance array

        if self.distances is None and self.rounds and self.functional and dist_base:
            reads, _first = self._read_lines(ctx, dist_base, 0, 4 * n_vertices)
            yield reads
            raw = b"".join(f.result() for f in reads)[: 4 * n_vertices]
            self.distances = np.frombuffer(raw, dtype="<u4").astype(np.uint64)
            self.frontier = np.flatnonzero(self.distances < INFINITY).tolist()
        elif self.distances is None:
            self.distances = np.full(n_vertices, INFINITY, dtype=np.uint64)
            self.distances[source] = 0
            self.frontier = [source]
            if self.functional and dist_base:
                yield [ctx.write(dist_base + i, self._line(i)) for i in lines]
        posted_writes: List = []

        while self.frontier:
            self.rounds += 1
            next_frontier: List[int] = []
            seen = set()
            # The edge engine keeps a small batch of frontier vertices in
            # flight (its vertex pipeline depth): offset fetches for the
            # whole batch overlap, then the edge-list fetches overlap.
            for start_index in range(0, len(self.frontier), self.pipeline_depth):
                batch = self.frontier[start_index : start_index + self.pipeline_depth]

                # 1) Fetch each vertex's offset pair (pointer chase step 1).
                offset_reads = []
                for vertex in batch:
                    futures, first_line = self._read_lines(
                        ctx, base, vertex * OFFSET_BYTES, 2 * OFFSET_BYTES
                    )
                    offset_reads.append((vertex, futures, first_line))
                yield [f for _v, fs, _fl in offset_reads for f in fs]

                spans = []  # (vertex, edge_start, degree)
                for vertex, futures, first_line in offset_reads:
                    if self.functional:
                        raw = b"".join(
                            (f.result() or bytes(CACHE_LINE_BYTES)) for f in futures
                        )
                        rel = vertex * OFFSET_BYTES - first_line
                        edge_start, edge_end = struct.unpack_from("<QQ", raw, rel)
                    else:
                        edge_start = int(self.graph.offsets[vertex])
                        edge_end = int(self.graph.offsets[vertex + 1])
                    if edge_end > edge_start:
                        spans.append((vertex, edge_start, edge_end - edge_start))

                # 2) Fetch every batched edge list (pointer chase step 2).
                edge_reads = []
                total_degree = 0
                for vertex, edge_start, degree in spans:
                    edge_byte_start = offsets_bytes + edge_start * EDGE_BYTES
                    futures, first_line = self._read_lines(
                        ctx, base, edge_byte_start, degree * EDGE_BYTES
                    )
                    edge_reads.append((vertex, edge_start, degree, futures, first_line))
                    total_degree += degree
                if edge_reads:
                    yield [f for *_m, fs, _fl in edge_reads for f in fs]
                    yield ctx.cycles(total_degree / self.edges_per_cycle)

                # 3) Relax edges; post improved-distance write-backs.
                writes = posted_writes
                for vertex, edge_start, degree, futures, first_line in edge_reads:
                    edge_byte_start = offsets_bytes + edge_start * EDGE_BYTES
                    if self.functional:
                        raw = b"".join(
                            (f.result() or bytes(CACHE_LINE_BYTES)) for f in futures
                        )
                        rel = edge_byte_start - first_line
                        records = np.frombuffer(
                            raw[rel : rel + degree * EDGE_BYTES], dtype="<u4"
                        )
                        targets = records[0::2]
                        weights = records[1::2]
                    else:
                        targets = self.graph.targets[edge_start : edge_start + degree]
                        weights = self.graph.weights[edge_start : edge_start + degree]
                    vertex_dist = int(self.distances[vertex])
                    for t, w in zip(targets.tolist(), weights.tolist()):
                        candidate = vertex_dist + w
                        if candidate < self.distances[t]:
                            self.distances[t] = candidate
                            if t not in seen:
                                seen.add(t)
                                next_frontier.append(t)
                            line = align_down(t * 4, CACHE_LINE_BYTES)
                            data = self._line(line) if self.functional else None
                            writes.append(ctx.write(dist_base + line, data))
                    self.edges_relaxed += degree
                # Distance updates are posted; stall only on deep backlog.
                while len(writes) > 256:
                    yield writes.pop(0)

            self.frontier = next_frontier
            if ctx.preempt_requested:
                while posted_writes:
                    yield posted_writes.pop(0)
            preempted = yield from ctx.preempt_point()
            if preempted:
                return
        while posted_writes:
            yield posted_writes.pop(0)

        # Final write-back: posted line writes may land out of order.
        if self.functional and dist_base:
            yield [ctx.write(dist_base + i, self._line(i)) for i in lines]
        self.done = True

    def _line(self, start: int) -> bytes:
        """The distance-array line at byte ``start``, as the circuit writes it."""
        import numpy as np

        from repro.kernels.graph import INFINITY

        values = self.distances[start // 4 : (start + CACHE_LINE_BYTES) // 4]
        return np.minimum(values, INFINITY).astype("<u4").tobytes().ljust(CACHE_LINE_BYTES, b"\0")

    def progress_units(self) -> int:
        return self.edges_relaxed
