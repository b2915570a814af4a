"""Fig. 6 — MemBench aggregate throughput vs working set, jobs, page size.

Random reads and random writes sweep the total working set past the
IOTLB's reach.  Expected shapes, from the paper:

* flat aggregate throughput up to 1 GB with 2 MB pages (the IOTLB's 512 x
  2 MB reach), then a collapse driven by page walks that consume both the
  walker and interconnect bandwidth;
* the same knee at 2 MB with 4 KB pages (Fig. 6b) — huge pages buy a 512x
  larger flat region;
* adding jobs never *reduces* aggregate throughput (scalability, §6.4);
* the 1-job, <=2 MB-working-set read anomaly: same-region speculative
  pipelining lifts throughput above the normal plateau (§6.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.accel.membench import MODE_READ, MODE_WRITE
from repro.experiments.harness import (
    ResultTable,
    make_stack,
    measure_progress,
    parallel_map,
)
from repro.mem import PAGE_SIZE_2M, PAGE_SIZE_4K, parse_size
from repro.platform import PlatformParams
from repro.sim.clock import us

WORKING_SETS_2M = ["16M", "32M", "64M", "128M", "256M", "512M", "1G", "2G", "4G", "8G"]
WORKING_SETS_4K = ["32K", "64K", "128K", "256K", "512K", "1M", "2M", "4M", "8M", "16M"]
JOB_COUNTS = [1, 2, 4, 8]


def aggregate_throughput(
    *,
    page_size: int,
    total_working_set: int,
    n_jobs: int,
    mode: int,
    window_us_: int = 200,
    speculative: bool = True,
) -> float:
    params = PlatformParams(page_size=page_size, speculative_region_opt=speculative)
    stack = make_stack("optimus", params, n_accelerators=8)
    per_job = max(page_size, total_working_set // n_jobs)
    jobs = []
    for index in range(n_jobs):
        launched = stack.launch(
            "MB",
            physical_index=index,
            working_set=per_job,
            job_kwargs={
                "functional": False,
                "seed": 0xFEED_BEEF + 104729 * index,
                "mode": mode,
            },
        )
        jobs.append(launched)
    rates = measure_progress(stack, jobs, warmup_ps=us(400), window_ps=us(window_us_))
    return sum(rates)


def _sweep_cell(cell) -> float:
    """One grid point, as a picklable top-level worker for ``--jobs``."""
    page_size, total, n_jobs, mode = cell
    return aggregate_throughput(
        page_size=page_size, total_working_set=total, n_jobs=n_jobs, mode=mode
    )


def run(
    *,
    page_size: int = PAGE_SIZE_2M,
    working_sets: Optional[List[str]] = None,
    job_counts: Optional[List[int]] = None,
    mode: int = MODE_READ,
    jobs: int = 1,
) -> ResultTable:
    if working_sets is None:
        working_sets = WORKING_SETS_2M if page_size == PAGE_SIZE_2M else WORKING_SETS_4K
    job_counts = job_counts or JOB_COUNTS
    page_label = "2M" if page_size == PAGE_SIZE_2M else "4K"
    mode_label = "random read" if mode == MODE_READ else "random write"
    table = ResultTable(
        f"Fig. 6 ({page_label} pages, {mode_label}) — aggregate MemBench GB/s",
        ["working_set"] + [f"{n}_jobs" for n in job_counts],
    )
    cells = []
    for ws_label in working_sets:
        total = parse_size(ws_label)
        for n_jobs in job_counts:
            if total // n_jobs >= page_size:
                cells.append((page_size, total, n_jobs, mode))
    values = iter(parallel_map(_sweep_cell, cells, jobs=jobs))
    for ws_label in working_sets:
        total = parse_size(ws_label)
        row: List[object] = [ws_label]
        for n_jobs in job_counts:
            if total // n_jobs < page_size:
                row.append(float("nan"))
                continue
            row.append(next(values))
        table.add(*row)
    return table


def read_anomaly(*, page_size: int = PAGE_SIZE_4K) -> Dict[str, float]:
    """§6.5's unusually-high read throughput: 1 job inside one 2 MB region.

    A single accelerator whose accesses stay within one 2 MB region keeps
    the IOMMU's speculative pipeline streaking, which lifts read
    throughput above the normal issue-limited plateau.  Returned values:
    the anomaly, the same configuration with the optimization disabled
    (the ablation), and a large-working-set reference point.
    """
    small = 1 * 1024 * 1024  # stays within a single 2 MB region
    large = 64 * 1024 * 1024
    return {
        "anomaly_gbps": aggregate_throughput(
            page_size=page_size, total_working_set=small, n_jobs=1, mode=MODE_READ
        ),
        "large_ws_gbps": aggregate_throughput(
            page_size=page_size, total_working_set=large, n_jobs=1, mode=MODE_READ
        ),
        "anomaly_disabled_gbps": aggregate_throughput(
            page_size=page_size, total_working_set=small, n_jobs=1, mode=MODE_READ,
            speculative=False,
        ),
    }


def main(jobs: int = 1):
    from repro.experiments.plotting import show_chart

    trimmed_2m = ["64M", "512M", "1G", "2G", "8G"]
    trimmed_4k = ["128K", "1M", "2M", "4M", "16M"]
    table_2m = run(
        page_size=PAGE_SIZE_2M, working_sets=trimmed_2m, mode=MODE_READ, jobs=jobs
    )
    table_2m.show()
    show_chart(table_2m, y_label="GB/s")
    write_2m = run(
        page_size=PAGE_SIZE_2M, working_sets=trimmed_2m, mode=MODE_WRITE, jobs=jobs
    )
    write_2m.show()
    read_4k = run(
        page_size=PAGE_SIZE_4K, working_sets=trimmed_4k, mode=MODE_READ, jobs=jobs
    )
    read_4k.show()
    anomaly = read_anomaly()
    print("read anomaly (1 job, <=2M region):", anomaly)
    return {
        "read_2m": table_2m,
        "write_2m": write_2m,
        "read_4k": read_4k,
        "read_anomaly": anomaly,
    }
