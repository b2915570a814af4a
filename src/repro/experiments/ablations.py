"""Ablations of OPTIMUS's design decisions (DESIGN.md §3).

Three studies the paper motivates but scatters through §5 and §7.2:

* **Multiplexer tree vs flat mux** — a flat 8:1 multiplexer cannot close
  timing at the shell's 400 MHz (the AmorphOS approach works only at
  lower frequency); a binary tree can, costing 33 ns per level.
* **IOTLB conflict mitigation** — contiguous 64 GB slices alias every
  accelerator's hot pages onto IOTLB set 0; the 128 MB inter-slice gap
  gives each of 8 accelerators a private 64-set region.  Measured as
  8-job LinkedList latency with mitigation on vs off.
* **Speculative same-region pipelining** — §6.5's read anomaly, on vs off
  (see :func:`repro.experiments.fig6_throughput.read_anomaly`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import SynthesisError
from repro.experiments.harness import Claim, OptimusStack, ResultTable, measure_progress
from repro.fpga.synthesis import flat_mux_fmax_mhz, mux_levels, plan_mux_tree
from repro.mem import MB, parse_size
from repro.platform import PlatformParams
from repro.sim.clock import ms, us


def mux_tree_study(*, n_accelerators: int = 8, target_mhz: float = 400.0) -> ResultTable:
    """Which mux arrangements close timing, and what latency they cost."""
    table = ResultTable(
        f"Ablation — multiplexer arrangements for {n_accelerators} accelerators",
        ["radix", "levels", "fmax_mhz", f"closes_{target_mhz:.0f}MHz", "latency_ns"],
    )
    for radix in (2, 4, 8):
        fmax = flat_mux_fmax_mhz(radix)
        try:
            arrangement = plan_mux_tree(n_accelerators, radix, target_mhz)
            closes = "yes"
            levels = arrangement.levels
        except SynthesisError:
            closes = "no"
            levels = mux_levels(n_accelerators, radix)
        table.add(radix, levels, fmax, closes, levels * 33.0)
    table.note("paper: only the 3-level binary tree closes timing at 400 MHz")
    return table


def conflict_mitigation_study(
    *,
    n_jobs: int = 8,
    per_job_working_set: str = "96M",
    hops_per_job: int = 1000,
    mitigation: Sequence[bool] = (True, False),
) -> ResultTable:
    """8-job LinkedList latency: mitigated vs contiguous slice layouts.

    With each job's working set under 128 MB, the mitigated layout keeps
    every accelerator in its own IOTLB-set region (near-zero conflict
    misses); the contiguous layout aliases all slices onto the same sets
    and thrashes.
    """
    table = ResultTable(
        "Ablation — IOTLB conflict mitigation (8-job LinkedList)",
        ["layout", "mean_latency_ns", "iotlb_miss_ratio"],
    )
    working_set = parse_size(per_job_working_set)
    for mitigated in mitigation:
        params = PlatformParams(conflict_mitigation=mitigated)
        stack = OptimusStack(params, n_accelerators=8)
        jobs = []
        for index in range(n_jobs):
            jobs.append(
                stack.launch(
                    "LL",
                    physical_index=index,
                    working_set=working_set,
                    job_kwargs={
                        "functional": False,
                        "seed": 0xD15EA5E + 13 * index,
                        "target_hops": hops_per_job,
                    },
                )
            )
        stack.run_for(ms(60))
        samples: List[int] = []
        for launched in jobs:
            samples.extend(
                launched.job.latency.steady_samples_ps(
                    skip_fraction=0.2, max_skip=100
                )
            )
        mean_ns = sum(samples) / len(samples) / 1000 if samples else 0.0
        stats = stack.platform.iommu.iotlb.stats
        miss_ratio = stats.miss_ratio
        table.add("mitigated" if mitigated else "contiguous", mean_ns, miss_ratio)
    table.note("paper (§5): the 128 MB gap removes cross-accelerator conflicts")
    return table


def weighted_bandwidth_study(*, window_us: int = 200) -> ResultTable:
    """Asymmetric mux tree (§4.1): a favoured accelerator gets more bandwidth.

    Three saturating MemBench tenants under the topology ``[0, [1, 2]]``:
    accelerator 0 hangs directly off the root and receives half the
    bandwidth; accelerators 1 and 2 share the other half.
    """
    table = ResultTable(
        "Ablation — asymmetric mux tree [0, [1, 2]]: per-accelerator share",
        ["accelerator", "gbps", "share_%", "expected_%"],
    )
    stack = OptimusStack(PlatformParams(), n_accelerators=3, mux_topology=[0, [1, 2]])
    jobs = [
        stack.launch(
            "MB",
            physical_index=i,
            working_set=16 * MB,
            job_kwargs={"functional": False, "seed": 0xAAA + 17 * i},
        )
        for i in range(3)
    ]
    rates = measure_progress(stack, jobs, warmup_ps=us(400), window_ps=us(window_us))
    total = sum(rates) or 1.0
    expected = [50.0, 25.0, 25.0]
    for index, rate in enumerate(rates):
        table.add(index, rate, 100.0 * rate / total, expected[index])
    table.note("round-robin per node: share = product of 1/fan-in on the path")
    return table


def run(
    *, mitigation: Sequence[bool] = (True, False), window_us: int = 200
) -> Dict[str, ResultTable]:
    return {
        "mux_tree": mux_tree_study(),
        "conflict_mitigation": conflict_mitigation_study(mitigation=mitigation),
        "weighted_bandwidth": weighted_bandwidth_study(window_us=window_us),
    }


QUICK = {"mitigation": [], "window_us": 60}


def _mux(column: str, radix: int):
    return lambda r: r["mux_tree"].series(column)[radix]


def _fmax(results: Dict[str, ResultTable]) -> List[float]:
    return results["mux_tree"].column("fmax_mhz")


def _layout(column: str, layout: str):
    return lambda r: r["conflict_mitigation"].series(column)[layout]


CLAIMS = (
    # Only the binary tree closes timing at 400 MHz; the flat 8:1 mux
    # cannot (AmorphOS's flat mux runs at a lower shell frequency).
    Claim("binary tree closes 400 MHz (1 = yes)", "yes",
          lambda r: _mux("closes_400MHz", 2)(r) == "yes", low=1.0, quick=True),
    Claim("flat 8:1 mux closes 400 MHz (1 = yes)", "no",
          lambda r: _mux("closes_400MHz", 8)(r) == "yes", high=0.0, quick=True),
    Claim("binary tree latency adder, ns", "3 levels x 33",
          _mux("latency_ns", 2), low=99.0, high=99.0, quick=True),
    Claim("fmax falls with every fan-in step (1 = yes)", "yes",
          lambda r: all(a > b for a, b in zip(_fmax(r), _fmax(r)[1:])), low=1.0, quick=True),
    # 96 MB per job fits the 128 MB conflict-free reach: the mitigated
    # layout keeps misses rare, contiguous slices alias and thrash.
    Claim("IOTLB miss ratio, mitigated layout", "near zero",
          _layout("iotlb_miss_ratio", "mitigated"), high=0.10),
    Claim("IOTLB miss ratio, contiguous layout", "thrashing",
          _layout("iotlb_miss_ratio", "contiguous"), low=0.5),
    Claim("contiguous over mitigated latency", "aliasing costs latency",
          lambda r: _layout("mean_latency_ns", "contiguous")(r)
          / _layout("mean_latency_ns", "mitigated")(r), low=1.25),
    Claim("root-level accelerator's share above a leaf's (1 = yes)", "50% / 25%",
          lambda r: r["weighted_bandwidth"].column("share_%")[0]
          > r["weighted_bandwidth"].column("share_%")[1], low=1.0, quick=True),
)
