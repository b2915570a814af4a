"""Fig. 1 — SSSP processing time: shared-memory vs host-centric models.

The motivating experiment of §2.1: single-source shortest path over
graphs with a fixed vertex count and growing edge counts, under six
configurations:

* shared-memory (the accelerator issues its own DMAs and pointer-chases),
* host-centric + Config (the CPU programs the DMA engine for every
  non-contiguous segment),
* host-centric + Copy (the CPU marshals segments into a contiguous
  staging buffer first),

each native and virtualized.  The paper measures shared-memory 17-60%
faster than host-centric natively, and 37-85% faster virtualized —
trap-and-emulate makes every host-centric DMA configuration dearer while
barely touching the shared-memory data plane.

The default graph is scaled down (the paper uses 800 K vertices and
3.2 M - 51.2 M edges; see EXPERIMENTS.md for full-scale runs).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.accel.hostcentric import HostCentricSsspRunner
from repro.experiments.harness import Claim, ResultTable, make_stack
from repro.kernels.graph import random_graph
from repro.platform import PlatformMode, PlatformParams, build_platform
from repro.sim.clock import to_ms

#: The paper's shared-memory advantage over the best host-centric variant.
PAPER_ADVANTAGE = {"native": "17-60%", "virtualized": "37-85%"}


def _shared_memory_ms(graph, *, virtualized: bool) -> float:
    stack = make_stack("passthrough", PlatformParams(), virtualized=virtualized)
    start = stack.platform.engine.now
    launched = stack.launch("SSSP", graph=graph)
    completion = launched.job.completion
    stack.platform.engine.run_until(completion)
    return to_ms(stack.platform.engine.now - start)


def _host_centric_ms(graph, *, variant: str, virtualized: bool) -> float:
    platform = build_platform(PlatformParams(), mode=PlatformMode.PASSTHROUGH)
    runner = HostCentricSsspRunner(
        platform, graph, variant=variant, virtualized=virtualized
    )
    completion = runner.run(source=0)
    platform.engine.run_until(completion)
    return to_ms(runner.result.elapsed_ps)


def run(
    *,
    n_vertices: int = 20_000,
    edge_counts: Sequence[int] = (80_000, 160_000, 320_000, 640_000),
    seed: int = 17,
) -> ResultTable:
    table = ResultTable(
        f"Fig. 1 — SSSP processing time (ms), {n_vertices} vertices",
        ["edges", "shared", "hc_config", "hc_copy", "shared_virt", "hc_config_virt",
         "hc_copy_virt"],
    )
    for n_edges in edge_counts:
        graph = random_graph(n_vertices, n_edges, seed=seed)
        table.add(
            n_edges,
            _shared_memory_ms(graph, virtualized=False),
            _host_centric_ms(graph, variant="config", virtualized=False),
            _host_centric_ms(graph, variant="copy", virtualized=False),
            _shared_memory_ms(graph, virtualized=True),
            _host_centric_ms(graph, variant="config", virtualized=True),
            _host_centric_ms(graph, variant="copy", virtualized=True),
        )
    table.note("paper: shared-memory 17-60% faster native, 37-85% virtualized")
    return table


def speedups(table: ResultTable) -> Dict[str, List[float]]:
    """Shared-memory advantage over the best host-centric variant."""
    native: List[float] = []
    virtual: List[float] = []
    for row in table.rows:
        _edges, shared, cfg, copy, shared_v, cfg_v, copy_v = row
        native.append(min(cfg, copy) / shared - 1.0)
        virtual.append(min(cfg_v, copy_v) / shared_v - 1.0)
    return {"native": native, "virtualized": virtual}


QUICK = {"n_vertices": 2_000, "edge_counts": [8_000, 24_000]}


def _gap(table: ResultTable) -> List[float]:
    """Virtualized minus native shared-memory advantage, per graph."""
    gains = speedups(table)
    return [v - n for n, v in zip(gains["native"], gains["virtualized"])]


def _config_slower(suffix: str):
    """Whether HC+Config takes longer than shared memory on every graph."""
    return lambda t: all(
        c > s for c, s in zip(t.column("hc_config" + suffix), t.column("shared" + suffix))
    )


CLAIMS = (
    Claim("native shared-memory advantage, smallest", PAPER_ADVANTAGE["native"],
          lambda t: min(speedups(t)["native"]), low=0.08, quick=True),
    # Trap-and-emulate inflates host-centric control traffic: the gap widens.
    Claim("virtualized minus native advantage, smallest", "wider virtualized",
          lambda t: min(_gap(t)), low=-0.02, quick=True),
    Claim("virtualized advantage above native, largest graph (1 = yes)",
          "wider virtualized", lambda t: _gap(t)[-1] > 0, low=1.0, quick=True),
    # Per-segment MMIO makes Config the slower host-centric variant.
    Claim("HC+Config slower than shared memory, every graph, native (1 = yes)",
          "yes", _config_slower(""), low=1.0, quick=True),
    Claim("HC+Config slower than shared memory, every graph, virtualized (1 = yes)",
          "yes", _config_slower("_virt"), low=1.0, quick=True),
)
