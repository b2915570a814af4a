"""Table 4 — heterogeneous fairness: MemBench co-located with each benchmark.

MemBench saturates the platform alone, so its throughput when co-located
with a second active accelerator shows how much bandwidth the round-robin
multiplexer tree guarantees: **at least half** against another bandwidth-
hungry tenant (MD5, a second MemBench), and nearly all of it against
light tenants (GRN, BTC, LinkedList).
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.harness import OptimusStack, ResultTable, measure_progress
from repro.kernels.graph import random_graph
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import us

PAPER_NORMALIZED = {
    "AES": 0.86, "MD5": 0.50, "SHA": 0.77, "FIR": 0.75, "GRN": 1.00,
    "RSD": 0.78, "SW": 0.78, "GAU": 0.80, "GRS": 0.80, "SBL": 0.79,
    "SSSP": 0.75, "BTC": 1.00, "MB": 0.50, "LL": 1.00,
}

DEFAULT_COLOCATED = list(PAPER_NORMALIZED)


def membench_standalone(*, working_set: int = 32 * MB, window_us: int = 120) -> float:
    stack = OptimusStack(PlatformParams(), n_accelerators=8)
    mb = stack.launch("MB", physical_index=0, working_set=working_set)
    return measure_progress(stack, [mb], warmup_ps=us(80), window_ps=us(window_us))[0]


def run(
    *,
    colocated: Optional[List[str]] = None,
    working_set: int = 32 * MB,
    window_us: int = 120,
) -> ResultTable:
    table = ResultTable(
        "Table 4 — MemBench throughput with one co-located accelerator",
        ["co-located", "mb_gbps", "normalized", "paper"],
    )
    baseline = membench_standalone(working_set=working_set, window_us=window_us)
    for name in colocated or DEFAULT_COLOCATED:
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


def main():
    table = run()
    table.show()
    return table
