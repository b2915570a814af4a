"""Fig. 5 — LinkedList average latency vs working set, jobs, and page size.

The latency microbenchmark walks randomly placed nodes while the total
working set (split evenly over 1/2/4/8 concurrent jobs) sweeps past the
IOTLB's reach:

* with 2 MB pages the IOTLB covers 512 x 2 MB = 1 GB: latency is flat up
  to 1 GB, rises slightly at 2 GB, and climbs steeply at 4-8 GB as misses
  pay page walks across the interconnect (Fig. 5a);
* with 4 KB pages the same knee appears 512x earlier, at 2 MB (Fig. 5b).

Both UPI-only and PCIe-only channels are measured, as in the paper.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.experiments.harness import Claim, OptimusStack, ResultTable, parallel_map
from repro.interconnect import VirtualChannel
from repro.mem import PAGE_SIZE_2M, PAGE_SIZE_4K, parse_size
from repro.platform import PlatformParams
from repro.sim.clock import ms

JOB_COUNTS = (1, 2, 4, 8)

#: The x-axes ``run`` sweeps by default: a trim of the paper's 16M-8G
#: (2 MB pages) and 32K-16M (4 KB pages) in power-of-two steps.
TRIMMED_2M = ("64M", "512M", "1G", "2G", "4G")
TRIMMED_4K = ("128K", "1M", "2M", "4M", "16M")


def _mean_latency_ns(
    channel: VirtualChannel,
    *,
    page_size: int,
    total_working_set: int,
    n_jobs: int,
    hops_per_job: int,
) -> float:
    params = PlatformParams(page_size=page_size)
    stack = OptimusStack(params, n_accelerators=8)
    per_job_ws = max(page_size, total_working_set // n_jobs)
    # Compulsory misses must not pollute the steady-state mean: walk at
    # least a few times the per-job page count and measure the second half.
    pages_per_job = max(1, per_job_ws // page_size)
    hops = max(hops_per_job, 4 * pages_per_job)
    jobs = []
    for index in range(n_jobs):
        jobs.append(
            stack.launch(
                "LL",
                physical_index=index,
                working_set=per_job_ws,
                channel=channel,
                job_kwargs={
                    "functional": False,
                    "seed": 0x51C0FFEE + 31 * index,
                    "target_hops": hops,
                },
            )
        )
    stack.run_for(ms(5 + 2 * hops // 1000))
    samples: List[int] = []
    for launched in jobs:
        # Public instrument surface: the second half of the samples is the
        # steady state (compulsory misses live in the first half).
        samples.extend(launched.job.latency.steady_samples_ps())
    return sum(samples) / len(samples) / 1000 if samples else 0.0


def _sweep_cell(cell) -> float:
    """One grid point, as a picklable top-level worker for ``--jobs``."""
    channel, page_size, total, n_jobs, hops_per_job = cell
    return _mean_latency_ns(
        channel,
        page_size=page_size,
        total_working_set=total,
        n_jobs=n_jobs,
        hops_per_job=hops_per_job,
    )


def sweep(
    *,
    page_size: int,
    working_sets: Sequence[str],
    job_counts: Sequence[int] = JOB_COUNTS,
    hops_per_job: int = 1200,
    jobs: int = 1,
) -> Dict[str, ResultTable]:
    """One page size: a table per channel (UPI, PCIe), rows = working sets
    x job counts.

    ``jobs`` fans the independent grid cells across processes; the merge
    is order-preserving, so results are identical to a serial run.
    """
    page_label = "2M" if page_size == PAGE_SIZE_2M else "4K"
    channels = ((VirtualChannel.VL0, "UPI"), (VirtualChannel.VH0, "PCIe"))
    cells = []
    for channel, _label in channels:
        for ws_label in working_sets:
            total = parse_size(ws_label)
            for n_jobs in job_counts:
                if total // n_jobs >= page_size:
                    cells.append((channel, page_size, total, n_jobs, hops_per_job))
    values = iter(parallel_map(_sweep_cell, cells, jobs=jobs))
    results: Dict[str, ResultTable] = {}
    for channel, label in channels:
        table = ResultTable(
            f"Fig. 5 ({page_label} pages, {label} channel) — LL average latency (ns)",
            ["working_set"] + [f"{n}_jobs" for n in job_counts],
        )
        for ws_label in working_sets:
            total = parse_size(ws_label)
            row: List[object] = [ws_label]
            for n_jobs in job_counts:
                if total // n_jobs < page_size:
                    row.append(float("nan"))
                    continue
                row.append(next(values))
            table.add(*row)
        results[label] = table
    return results


def run(
    *,
    working_sets_2m: Sequence[str] = TRIMMED_2M,
    working_sets_4k: Sequence[str] = TRIMMED_4K,
    job_counts: Sequence[int] = JOB_COUNTS,
    hops_per_job: int = 1200,
    jobs: int = 1,
) -> Dict[str, ResultTable]:
    """Both panels: tables keyed ``"<page>.<channel>"`` (``"2M.UPI"``, ...)."""
    results: Dict[str, ResultTable] = {}
    for page_size, page_label, sets in (
        (PAGE_SIZE_2M, "2M", working_sets_2m),
        (PAGE_SIZE_4K, "4K", working_sets_4k),
    ):
        for label, table in sweep(
            page_size=page_size,
            working_sets=sets,
            job_counts=job_counts,
            hops_per_job=hops_per_job,
            jobs=jobs,
        ).items():
            results[f"{page_label}.{label}"] = table
    return results


QUICK = {
    "working_sets_2m": ["64M", "128M"],
    "working_sets_4k": [],
    "job_counts": [1, 2],
    "hops_per_job": 200,
}


def _ratio(key: str, over: str, under: str, over_column: str = "1_jobs"):
    """Latency in table ``key`` at ``over`` (``over_column``) / at ``under`` (1 job)."""
    return lambda r: r[key].series(over_column)[over] / r[key].series("1_jobs")[under]


def _pcie_above_upi(results: Dict[str, ResultTable]) -> bool:
    return all(
        pcie > upi
        for page in ("2M", "4K")
        for pcie, upi in zip(
            results[f"{page}.PCIe"].column("1_jobs"), results[f"{page}.UPI"].column("1_jobs")
        )
        if not math.isnan(upi)
    )


CLAIMS = (
    Claim("2M pages: 512M over 64M latency, 1 job", "flat to the 1 GB reach",
          _ratio("2M.UPI", "512M", "64M"), high=1.10),
    Claim("2M pages: 4G over 512M latency, 1 job", "steep past 2 GB",
          _ratio("2M.UPI", "4G", "512M"), low=1.3),
    Claim("2M pages: 4G latency above 2G's, 1 job (1 = yes)", "rising",
          lambda r: _ratio("2M.UPI", "4G", "2G")(r) > 1, low=1.0),
    Claim("2M pages: 8-job over 1-job latency at 512M", "little queuing",
          _ratio("2M.UPI", "512M", "512M", over_column="8_jobs"), high=1.15),
    Claim("PCIe latency above UPI's, every 1-job point (1 = yes)", "yes",
          _pcie_above_upi, low=1.0, quick=True),
    Claim("4K pages: 1M over 128K latency, 1 job", "flat to the 2 MB reach",
          _ratio("4K.UPI", "1M", "128K"), high=1.15),
    Claim("4K pages: 4M over 1M latency, 1 job", "steep past 2 MB",
          _ratio("4K.UPI", "4M", "1M"), low=1.3),
    Claim("4K pages: 16M over 4M latency, 1 job", "rising",
          _ratio("4K.UPI", "16M", "4M"), low=0.95),
)
