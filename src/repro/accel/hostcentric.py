"""Host-centric baseline: the programming model OPTIMUS argues against.

In the host-centric model (§2.1) accelerators cannot issue DMAs; the CPU
configures a DMA engine for every transfer.  For pointer-chasing
workloads like SSSP the host must either

* **Config** — program the DMA engine once per non-contiguous data
  segment (every frontier vertex's edge list), paying MMIO configuration
  latency per segment, or
* **Copy** — marshal all segments into one contiguous staging buffer with
  CPU memcpys, then issue a single DMA per round.

Both are implemented here as host-side simulation processes driving the
same platform links and the same CSR graphs as the shared-memory SSSP
accelerator, which is what Fig. 1 compares.  Virtualization multiplies
the MMIO cost by the trap-and-emulate overhead — the reason the
host-centric gap widens from 17-60% (native) to 37-85% (virtualized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.errors import ConfigurationError
from repro.kernels.graph import CsrGraph, EDGE_BYTES, OFFSET_BYTES, INFINITY
from repro.platform.builder import Platform
from repro.sim.clock import Clock, gbps_to_bytes_per_ps, us

#: CPU time to prepare one DMA descriptor in the engine's ring.
DESCRIPTOR_NS = 50
#: Segments batched behind one doorbell MMIO (descriptor-ring style).
DOORBELL_BATCH = 8
#: DMA-engine per-transfer turnaround (fetch descriptor, start transfer).
ENGINE_SETUP_NS = 300
#: CPU memcpy bandwidth for the Copy variant's marshalling.
HOST_COPY_GBPS = 2.0
#: CPU random-gather overhead per non-contiguous segment (cache misses
#: while chasing offsets and edge lists on the host).
GATHER_NS = 350
#: Host-side cost to apply one relaxation result when building the next
#: frontier (both variants pay this; the shared-memory accelerator does
#: the equivalent work on the FPGA).
RESULT_NS_PER_EDGE = 8


@dataclass
class HostCentricResult:
    elapsed_ps: int
    dma_configs: int
    bytes_transferred: int
    edges_relaxed: int


class HostCentricSsspRunner:
    """Runs SSSP on a host-centric FPGA (Config or Copy variant)."""

    def __init__(
        self,
        platform: Platform,
        graph: CsrGraph,
        *,
        variant: str = "config",
        virtualized: bool = False,
        edges_per_cycle: float = 4.0,
        accel_mhz: float = 200.0,
    ) -> None:
        if variant not in ("config", "copy"):
            raise ConfigurationError("variant must be 'config' or 'copy'")
        self.platform = platform
        self.graph = graph
        self.variant = variant
        self.virtualized = virtualized
        self.edges_per_cycle = edges_per_cycle
        self.accel_clock = Clock(accel_mhz)
        self.result: HostCentricResult = HostCentricResult(0, 0, 0, 0)

    # -- cost model ------------------------------------------------------------------

    @property
    def _mmio_op_ps(self) -> int:
        params = self.platform.params
        if self.virtualized:
            return params.mmio_native_ps + params.mmio_trap_ps
        return params.mmio_native_ps

    def _segment_config_ps(self) -> int:
        """Per-segment DMA-engine cost: descriptor + amortized doorbell +
        engine turnaround.  Virtualization inflates the (trapped) doorbell."""
        doorbell = self._mmio_op_ps // DOORBELL_BATCH
        return DESCRIPTOR_NS * 1000 + doorbell + ENGINE_SETUP_NS * 1000

    # -- transfers -----------------------------------------------------------------------

    def _transfer(self, size_bytes: int):
        """One DMA-engine transfer from host memory to the accelerator."""
        link = self.platform.selector.pcie_links[0]
        future = self.platform.engine.future()
        link.send_from_memory(size_bytes + 16, future.set_result, None)
        self.result.bytes_transferred += size_bytes
        return future

    # -- the algorithm (structure identical to the shared-memory SSSP) ---------------------

    def run(self, source: int = 0):
        """Spawn the host process; returns its completion future."""
        process = self.platform.engine.spawn(self._body(source), name=f"hc-sssp-{self.variant}")
        return process.completion

    def _body(self, source: int) -> Generator:
        graph = self.graph
        start_ps = self.platform.engine.now
        dist = [INFINITY] * graph.n_vertices
        dist[source] = 0
        frontier = [source]
        copy_rate = gbps_to_bytes_per_ps(HOST_COPY_GBPS)

        while frontier:
            segments = []  # (vertex, edge_start, degree)
            for vertex in frontier:
                edge_start = int(graph.offsets[vertex])
                degree = int(graph.offsets[vertex + 1]) - edge_start
                if degree:
                    segments.append((vertex, edge_start, degree))

            total_edges = sum(d for _v, _e, d in segments)
            if self.variant == "config":
                # One DMA-engine descriptor + transfer per non-contiguous
                # segment, issued sequentially: the CPU stays in the loop
                # for every edge list (§2.1, "initiate multiple data
                # transmissions separately and sequentially").
                last_transfer = None
                for _vertex, _edge_start, degree in segments:
                    yield self._segment_config_ps()
                    self.result.dma_configs += 1
                    # The engine pipelines transfers behind the descriptor
                    # ring; the CPU only synchronizes at the round barrier.
                    last_transfer = self._transfer(degree * EDGE_BYTES)
                if last_transfer is not None:
                    yield last_transfer
            else:
                # Marshal every segment into a contiguous staging buffer
                # with CPU gathers + memcpys, then one descriptor and one
                # bulk transfer per round.
                total_bytes = total_edges * EDGE_BYTES
                if total_bytes:
                    gather_ps = len(segments) * GATHER_NS * 1000
                    yield gather_ps + max(1, round(total_bytes / copy_rate))
                    yield self._segment_config_ps()
                    self.result.dma_configs += 1
                    yield self._transfer(total_bytes)

            # The accelerator relaxes the delivered edges.
            if total_edges:
                yield self.accel_clock.cycles(total_edges / self.edges_per_cycle)
            self.result.edges_relaxed += total_edges

            # Results return to the host: one transfer per round.
            yield self._segment_config_ps()
            self.result.dma_configs += 1
            yield self._transfer(max(64, len(frontier) * 4))

            # Host-side relaxation bookkeeping to build the next frontier —
            # in the host-centric model the CPU owns the traversal state.
            if total_edges:
                yield total_edges * RESULT_NS_PER_EDGE * 1000
            next_frontier = []
            seen = set()
            for vertex, edge_start, degree in segments:
                base_dist = dist[vertex]
                for index in range(edge_start, edge_start + degree):
                    target = int(graph.targets[index])
                    weight = int(graph.weights[index])
                    if base_dist + weight < dist[target]:
                        dist[target] = base_dist + weight
                        if target not in seen:
                            seen.add(target)
                            next_frontier.append(target)
            frontier = next_frontier

        self.result.elapsed_ps = self.platform.engine.now - start_ps
        return self.result
