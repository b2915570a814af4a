"""Fig. 4 — virtualization overhead of OPTIMUS versus pass-through.

* **Fig. 4a (latency):** LinkedList mean access latency under OPTIMUS,
  normalized to pass-through, on UPI-only and PCIe-only channels.  Paper:
  124.2% (UPI) and 111.1% (PCIe); the ~100 ns adder is the three-level
  multiplexer tree plus the auditor crossings.

* **Fig. 4b (throughput):** per-benchmark throughput under OPTIMUS
  normalized to pass-through.  Paper: MemBench 90.1% (the every-other-
  cycle issue limit), image filters 92.7-94.4%, compute-bound benchmarks
  ~100%.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.harness import (
    Claim,
    ResultTable,
    make_stack,
    measure_progress,
)
from repro.interconnect import VirtualChannel
from repro.kernels.graph import random_graph
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import ms, us

#: Paper values for side-by-side reporting.
PAPER_LATENCY = {"UPI": 124.2, "PCIe": 111.1}
PAPER_THROUGHPUT = {
    "MB": 90.1, "MD5": 99.6, "SHA": 99.8, "AES": 99.8, "GRN": 95.9,
    "FIR": 99.9, "SW": 99.9, "RSD": 99.9, "GAU": 94.4, "GRS": 93.9,
    "SBL": 92.7, "SSSP": 99.4, "BTC": 100.0,
}

THROUGHPUT_BENCHMARKS = [
    "MB", "MD5", "SHA", "AES", "GRN", "FIR", "SW", "RSD", "GAU", "GRS", "SBL",
    "SSSP", "BTC",
]


def _stack(mode: str):
    """Both fig4 panels use default-parameter stacks of either mode."""
    params = PlatformParams()
    if mode == "optimus":
        return make_stack("optimus", params, n_accelerators=8)
    return make_stack("passthrough", params, virtualized=True)


def _ll_latency_ns(mode: str, channel: VirtualChannel, *, hops: int, working_set: int) -> float:
    stack = _stack(mode)
    launched = stack.launch(
        "LL", working_set=working_set, channel=channel,
        job_kwargs={"functional": False, "target_hops": hops},
    )
    stack.run_for(ms(50))
    steady = launched.job.latency.steady_samples_ps(skip_fraction=0.2, max_skip=200)
    return sum(steady) / len(steady) / 1000 if steady else 0.0


def _throughput(name: str, mode: str, *, window_us: int, graph=None) -> float:
    stack = _stack(mode)
    launched = stack.launch(name, working_set=128 * MB, graph=graph)
    in_bytes = name not in ("BTC",)
    rates = measure_progress(
        stack, [launched], warmup_ps=us(60), window_ps=us(window_us), in_bytes=in_bytes
    )
    return rates[0]


def run(*, hops: int = 1500, window_us: int = 100, graph_vertices: int = 30_000,
        graph_edges: int = 240_000) -> Dict[str, ResultTable]:
    """Regenerate both panels; returns {'latency': ..., 'throughput': ...}."""
    latency = ResultTable(
        "Fig. 4a — LinkedList latency, OPTIMUS normalized to pass-through",
        ["channel", "optimus_ns", "passthrough_ns", "normalized_%", "paper_%"],
    )
    for channel, label in ((VirtualChannel.VL0, "UPI"), (VirtualChannel.VH0, "PCIe")):
        opt_ns = _ll_latency_ns("optimus", channel, hops=hops, working_set=64 * MB)
        pt_ns = _ll_latency_ns("passthrough", channel, hops=hops, working_set=64 * MB)
        latency.add(label, opt_ns, pt_ns, 100.0 * opt_ns / pt_ns, PAPER_LATENCY[label])

    throughput = ResultTable(
        "Fig. 4b — throughput, OPTIMUS normalized to pass-through",
        ["benchmark", "optimus", "passthrough", "normalized_%", "paper_%"],
    )
    graph = random_graph(graph_vertices, graph_edges, seed=21)
    for name in THROUGHPUT_BENCHMARKS:
        g: Optional[object] = graph if name == "SSSP" else None
        opt = _throughput(name, "optimus", window_us=window_us, graph=g)
        pt = _throughput(name, "passthrough", window_us=window_us, graph=g)
        ratio = 100.0 * opt / pt if pt else 0.0
        throughput.add(name, opt, pt, ratio, PAPER_THROUGHPUT[name])
    throughput.note("optimus/passthrough columns: GB/s (BTC: hash attempts/us)")
    return {"latency": latency, "throughput": throughput}


QUICK = {"hops": 300, "window_us": 40, "graph_vertices": 2_000, "graph_edges": 8_000}


def _latency(channel: str, result: Dict[str, ResultTable]) -> float:
    return result["latency"].series("normalized_%")[channel]


def _throughput_claim(name: str, **band) -> Claim:
    return Claim(
        f"Fig. 4b {name} throughput, % of pass-through",
        PAPER_THROUGHPUT[name],
        lambda r: r["throughput"].series("normalized_%")[name],
        **band,
    )


CLAIMS = (
    Claim("Fig. 4a UPI latency, % of pass-through", PAPER_LATENCY["UPI"],
          lambda r: _latency("UPI", r), low=110.0, high=135.0, quick=True),
    Claim("Fig. 4a PCIe latency, % of pass-through", PAPER_LATENCY["PCIe"],
          lambda r: _latency("PCIe", r), low=105.0, high=120.0, quick=True),
    # The same ~100 ns mux-tree adder on a smaller base.
    Claim("Fig. 4a UPI overhead above PCIe's (1 = yes)",
          f"{PAPER_LATENCY['UPI']} > {PAPER_LATENCY['PCIe']}",
          lambda r: _latency("UPI", r) > _latency("PCIe", r), low=1.0, quick=True),
    Claim("Fig. 4b measures every paper benchmark (1 = yes)", f"all {len(PAPER_THROUGHPUT)}",
          lambda r: set(r["throughput"].series("normalized_%")) == set(PAPER_THROUGHPUT),
          low=1.0, quick=True),
    # MemBench is the worst case (the every-other-cycle issue limit).
    _throughput_claim("MB", low=85.0, high=96.0, quick=True),
    *(_throughput_claim(name, low=97.0) for name in ("MD5", "SHA", "SW", "BTC")),
    *(_throughput_claim(name, low=88.0, high=98.0) for name in ("GAU", "GRS", "SBL")),
    Claim("Fig. 4b lowest throughput, % of pass-through", min(PAPER_THROUGHPUT.values()),
          lambda r: min(r["throughput"].series("normalized_%").values()), low=85.0),
)
