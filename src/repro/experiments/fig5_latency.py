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

from typing import Dict, List, Optional

from repro.experiments.harness import OptimusStack, ResultTable, parallel_map
from repro.interconnect import VirtualChannel
from repro.mem import GB, MB, PAGE_SIZE_2M, PAGE_SIZE_4K, format_size, parse_size
from repro.platform import PlatformParams
from repro.sim.clock import ms

#: The paper's x-axes.
WORKING_SETS_2M = ["16M", "32M", "64M", "128M", "256M", "512M", "1G", "2G", "4G", "8G"]
WORKING_SETS_4K = ["32K", "64K", "128K", "256K", "512K", "1M", "2M", "4M", "8M", "16M"]
JOB_COUNTS = [1, 2, 4, 8]


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


def run(
    *,
    page_size: int = PAGE_SIZE_2M,
    working_sets: Optional[List[str]] = None,
    job_counts: Optional[List[int]] = None,
    hops_per_job: int = 1200,
    jobs: int = 1,
) -> Dict[str, ResultTable]:
    """One table per channel (UPI, PCIe), rows = working sets x job counts.

    ``jobs`` fans the independent grid cells across processes; the merge
    is order-preserving, so results are identical to a serial run.
    """
    if working_sets is None:
        working_sets = WORKING_SETS_2M if page_size == PAGE_SIZE_2M else WORKING_SETS_4K
    job_counts = job_counts or JOB_COUNTS
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


def quick(jobs: int = 1) -> Dict[str, ResultTable]:
    """A seconds-scale cell of the sweep (CI smoke and ``trace fig5``)."""
    results = run(
        page_size=PAGE_SIZE_2M,
        working_sets=["64M", "128M"],
        job_counts=[1, 2],
        hops_per_job=200,
        jobs=jobs,
    )
    for table in results.values():
        table.show()
    return results


def main(jobs: int = 1) -> Dict[str, ResultTable]:
    # A trimmed default grid keeps the module runnable in about a minute;
    # pass the full paper grids for the complete figure.
    results: Dict[str, ResultTable] = {}
    for page_size in (PAGE_SIZE_2M, PAGE_SIZE_4K):
        sets = (
            ["64M", "512M", "1G", "2G", "4G"]
            if page_size == PAGE_SIZE_2M
            else ["128K", "1M", "2M", "4M", "16M"]
        )
        page_label = "2M" if page_size == PAGE_SIZE_2M else "4K"
        for label, table in run(
            page_size=page_size, working_sets=sets, jobs=jobs
        ).items():
            table.show()
            results[f"{page_label}.{label}"] = table
    return results
