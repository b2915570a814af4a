"""Graph kernels: CSR representation, generators, and reference SSSP.

Functional substrate behind the SSSP benchmark accelerator (Table 1,
ported from Zhou & Prasanna's CPU-FPGA graph accelerator).  Provides:

* :class:`CsrGraph` — compressed-sparse-row adjacency with weights, plus
  (de)serialization to the exact byte layout the accelerator walks in
  shared memory (offsets array, then edge/weight pairs);
* a deterministic random-graph generator matching the paper's workloads
  (800 K vertices, 3.2 M - 51.2 M edges);
* reference Bellman-Ford / Dijkstra SSSP used to validate the
  accelerator's result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

#: Byte widths in the serialized layout.
OFFSET_BYTES = 8  # uint64 per vertex+1
EDGE_BYTES = 8  # uint32 destination + uint32 weight

#: The unreachable distance: the largest uint32.
INFINITY = 0xFFFFFFFF


@dataclass
class CsrGraph:
    """A weighted digraph in CSR form."""

    offsets: np.ndarray  # uint64, len = n_vertices + 1
    targets: np.ndarray  # uint32, len = n_edges
    weights: np.ndarray  # uint32, len = n_edges

    def __post_init__(self) -> None:
        if self.offsets.ndim != 1 or self.targets.shape != self.weights.shape:
            raise ConfigurationError("malformed CSR arrays")
        if int(self.offsets[-1]) != len(self.targets):
            raise ConfigurationError("offsets do not cover the edge arrays")

    @property
    def n_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_edges(self) -> int:
        return len(self.targets)

    def neighbors(self, vertex: int):
        start, end = int(self.offsets[vertex]), int(self.offsets[vertex + 1])
        return zip(self.targets[start:end].tolist(), self.weights[start:end].tolist())

    # -- shared-memory layout ---------------------------------------------------

    def serialize(self) -> bytes:
        """The byte image the accelerator walks: offsets || (target, weight)*."""
        import numpy as np

        edge_records = np.empty(self.n_edges * 2, dtype=np.uint32)
        edge_records[0::2] = self.targets
        edge_records[1::2] = self.weights
        return self.offsets.astype("<u8").tobytes() + edge_records.astype("<u4").tobytes()

    @property
    def offsets_bytes(self) -> int:
        return (self.n_vertices + 1) * OFFSET_BYTES

    @property
    def serialized_bytes(self) -> int:
        return self.offsets_bytes + self.n_edges * EDGE_BYTES

    @classmethod
    def deserialize(cls, data: bytes, n_vertices: int) -> "CsrGraph":
        import numpy as np

        offsets = np.frombuffer(data[: (n_vertices + 1) * OFFSET_BYTES], dtype="<u8")
        n_edges = int(offsets[-1])
        records = np.frombuffer(
            data[(n_vertices + 1) * OFFSET_BYTES :][: n_edges * EDGE_BYTES], dtype="<u4"
        )
        return cls(
            offsets=offsets.copy(),
            targets=records[0::2].copy(),
            weights=records[1::2].copy(),
        )


def random_graph(
    n_vertices: int,
    n_edges: int,
    *,
    seed: int = 42,
    max_weight: int = 100,
) -> CsrGraph:
    """A uniform random digraph with the requested size, deterministic."""
    if n_vertices < 2 or n_edges < 1:
        raise ConfigurationError("need at least 2 vertices and 1 edge")
    import numpy as np

    rng = np.random.RandomState(seed)
    sources = rng.randint(0, n_vertices, size=n_edges, dtype=np.int64)
    targets = rng.randint(0, n_vertices, size=n_edges, dtype=np.int64)
    weights = rng.randint(1, max_weight + 1, size=n_edges, dtype=np.int64)
    order = np.argsort(sources, kind="stable")
    sources = sources[order]
    targets = targets[order]
    weights = weights[order]
    counts = np.bincount(sources, minlength=n_vertices)
    offsets = np.zeros(n_vertices + 1, dtype=np.uint64)
    offsets[1:] = np.cumsum(counts)
    return CsrGraph(
        offsets=offsets,
        targets=targets.astype(np.uint32),
        weights=weights.astype(np.uint32),
    )


def sssp_dijkstra(graph: CsrGraph, source: int) -> np.ndarray:
    """Reference shortest paths (uint32 distances, INFINITY = unreachable)."""
    import numpy as np

    dist = np.full(graph.n_vertices, INFINITY, dtype=np.uint64)
    dist[source] = 0
    heap = [(0, source)]
    visited = np.zeros(graph.n_vertices, dtype=bool)
    while heap:
        d, vertex = heapq.heappop(heap)
        if visited[vertex]:
            continue
        visited[vertex] = True
        for target, weight in graph.neighbors(vertex):
            candidate = d + weight
            if candidate < dist[target]:
                dist[target] = candidate
                heapq.heappush(heap, (candidate, target))
    return np.minimum(dist, INFINITY).astype(np.uint32)


def sssp_bellman_ford(
    graph: CsrGraph, source: int, max_rounds: Optional[int] = None
) -> np.ndarray:
    """Frontier-based Bellman-Ford — the algorithm the accelerator runs."""
    import numpy as np

    dist = np.full(graph.n_vertices, INFINITY, dtype=np.uint64)
    dist[source] = 0
    frontier: List[int] = [source]
    rounds = 0
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            break
        next_frontier: List[int] = []
        seen = set()
        for vertex in frontier:
            base = int(dist[vertex])
            for target, weight in graph.neighbors(vertex):
                candidate = base + weight
                if candidate < dist[target]:
                    dist[target] = candidate
                    if target not in seen:
                        seen.add(target)
                        next_frontier.append(target)
        frontier = next_frontier
    return np.minimum(dist, INFINITY).astype(np.uint32)
