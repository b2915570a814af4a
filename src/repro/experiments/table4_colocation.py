"""Table 4 — heterogeneous fairness: MemBench co-located with each benchmark.

MemBench saturates the platform alone, so its throughput when co-located
with a second active accelerator shows how much bandwidth the round-robin
multiplexer tree guarantees: **at least half** against another bandwidth-
hungry tenant (MD5, a second MemBench), and nearly all of it against
light tenants (GRN, BTC, LinkedList).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import Claim, OptimusStack, ResultTable, measure_progress
from repro.kernels.graph import random_graph
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import us

PAPER_NORMALIZED = {
    "AES": 0.86, "MD5": 0.50, "SHA": 0.77, "FIR": 0.75, "GRN": 1.00,
    "RSD": 0.78, "SW": 0.78, "GAU": 0.80, "GRS": 0.80, "SBL": 0.79,
    "SSSP": 0.75, "BTC": 1.00, "MB": 0.50, "LL": 1.00,
}


def run(
    *,
    colocated: Sequence[str] = tuple(PAPER_NORMALIZED),
    working_set: int = 32 * MB,
    window_us: int = 120,
) -> ResultTable:
    table = ResultTable(
        "Table 4 — MemBench throughput with one co-located accelerator",
        ["co-located", "mb_gbps", "normalized", "paper"],
    )
    stack = OptimusStack(PlatformParams(), n_accelerators=8)
    mb = stack.launch("MB", physical_index=0, working_set=working_set)
    baseline = measure_progress(stack, [mb], warmup_ps=us(80), window_ps=us(window_us))[0]
    for name in colocated:
        stack = OptimusStack(PlatformParams(), n_accelerators=8)
        mb = stack.launch("MB", physical_index=0, working_set=working_set)
        graph = random_graph(30_000, 480_000, seed=6) if name == "SSSP" else None
        job_kwargs = {"functional": False}
        if name == "SSSP":
            job_kwargs["pipeline_depth"] = 32
        if name in ("MB", "LL"):
            job_kwargs["seed"] = 0xBEEF_1234
        if name == "LL":
            job_kwargs["target_hops"] = 1 << 40
        stack.launch(
            name, physical_index=1, working_set=working_set, graph=graph,
            job_kwargs=job_kwargs,
        )
        warm = us(400) if name == "SSSP" else us(80)
        mb_rate = measure_progress(
            stack, [mb], warmup_ps=warm, window_ps=us(window_us)
        )[0]
        table.add(name, mb_rate, mb_rate / baseline, PAPER_NORMALIZED[name])
    table.note(f"standalone MemBench baseline: {baseline:.2f} GB/s")
    return table


QUICK = {"colocated": ["GRN"], "window_us": 60}


def _colocated(name: str, **band) -> Claim:
    return Claim(
        f"MemBench normalized throughput beside {name}",
        PAPER_NORMALIZED[name],
        lambda t: t.series("normalized")[name],
        **band,
    )


CLAIMS = (
    # The fairness floor: at least ~half, even against a bandwidth-hungry
    # co-tenant.
    Claim("lowest MemBench normalized throughput", min(PAPER_NORMALIZED.values()),
          lambda t: min(t.series("normalized").values()), low=0.45, quick=True),
    # Bandwidth-hungry co-tenants split the platform evenly...
    *(_colocated(name, high=0.65) for name in ("MD5", "MB")),
    # ...light ones leave MemBench nearly untouched...
    _colocated("GRN", low=0.90, quick=True),
    *(_colocated(name, low=0.90) for name in ("BTC", "LL")),
    # ...and streaming benchmarks land in between (the paper's 0.75-0.86).
    *(
        _colocated(name, low=0.60, high=0.98)
        for name in ("AES", "SHA", "FIR", "RSD", "SW", "GAU", "GRS", "SBL", "SSSP")
    ),
)
