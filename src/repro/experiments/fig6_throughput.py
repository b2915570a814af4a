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

from typing import Dict, List, Sequence

from repro.accel.membench import MODE_READ, MODE_WRITE
from repro.experiments.harness import (
    Claim,
    ResultTable,
    make_stack,
    measure_progress,
    parallel_map,
)
from repro.mem import PAGE_SIZE_2M, PAGE_SIZE_4K, parse_size
from repro.platform import PlatformParams
from repro.sim.clock import us

JOB_COUNTS = (1, 2, 4, 8)

#: The x-axes ``run`` sweeps by default: a trim of the paper's 16M-8G
#: (2 MB pages) and 32K-16M (4 KB pages) in power-of-two steps.
TRIMMED_2M = ("64M", "512M", "1G", "2G", "8G")
TRIMMED_4K = ("128K", "1M", "2M", "4M", "16M")


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


def sweep(
    *,
    page_size: int,
    working_sets: Sequence[str],
    job_counts: Sequence[int] = JOB_COUNTS,
    mode: int = MODE_READ,
    jobs: int = 1,
) -> ResultTable:
    """One page size and access mode."""
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


def run(
    *,
    read_2m: Sequence[str] = TRIMMED_2M,
    write_2m: Sequence[str] = TRIMMED_2M,
    read_4k: Sequence[str] = TRIMMED_4K,
    job_counts: Sequence[int] = JOB_COUNTS,
    anomaly: bool = True,
    jobs: int = 1,
) -> Dict[str, object]:
    """Fig. 6a (reads and writes), Fig. 6b (reads), and §6.5's anomaly."""
    return {
        "read_2m": sweep(page_size=PAGE_SIZE_2M, working_sets=read_2m,
                         job_counts=job_counts, mode=MODE_READ, jobs=jobs),
        "write_2m": sweep(page_size=PAGE_SIZE_2M, working_sets=write_2m,
                          job_counts=job_counts, mode=MODE_WRITE, jobs=jobs),
        "read_4k": sweep(page_size=PAGE_SIZE_4K, working_sets=read_4k,
                         job_counts=job_counts, mode=MODE_READ, jobs=jobs),
        "read_anomaly": read_anomaly() if anomaly else {},
    }


QUICK = {
    "read_2m": ["64M", "8G"],
    "write_2m": [],
    "read_4k": [],
    "job_counts": [1],
    "anomaly": False,
}


def _gbps(key: str, column: str, working_set: str):
    return lambda r: r[key].series(column)[working_set]


def _ratio(key: str, over: str, under: str, column: str, under_column: str = ""):
    """GB/s in table ``key`` at ``over`` / at ``under`` (same column unless given)."""
    return lambda r: _gbps(key, column, over)(r) / _gbps(key, under_column or column, under)(r)


def _anomaly_over(reference: str):
    return lambda r: r["read_anomaly"]["anomaly_gbps"] / r["read_anomaly"][reference]


CLAIMS = (
    Claim("2M read: 512M over 64M, 1 job", "flat to the 1 GB reach",
          _ratio("read_2m", "512M", "64M", "1_jobs"), low=0.9),
    Claim("2M read: 8G below 64M, 1 job (1 = yes)", "collapse past the reach",
          lambda r: _ratio("read_2m", "8G", "64M", "1_jobs")(r) < 1, low=1.0, quick=True),
    Claim("2M read: 8G over 1G, 8 jobs", "steep drop",
          _ratio("read_2m", "8G", "1G", "8_jobs"), high=0.55),
    # Adding jobs does not diminish aggregate throughput (§6.4).
    Claim("2M read: 8 jobs over 1 job at 512M", "not diminished",
          _ratio("read_2m", "512M", "512M", "8_jobs", "1_jobs"), low=0.9),
    Claim("2M read plateau, 8 jobs at 512M, GB/s", "~12.6 cap",
          _gbps("read_2m", "8_jobs", "512M"), low=10.0, high=14.5),
    Claim("2M write plateau, 8 jobs at 512M, GB/s", "near the read plateau",
          _gbps("write_2m", "8_jobs", "512M"), low=8.0),
    Claim("2M write: 8G over 512M, 8 jobs", "steep drop",
          _ratio("write_2m", "8G", "512M", "8_jobs"), high=0.6),
    Claim("4K read: 4M over 2M, 1 job", "drop past the 2 MB reach",
          _ratio("read_4k", "4M", "2M", "1_jobs"), high=0.75),
    Claim("§6.5 anomaly over the same run without speculation", "present, then gone",
          _anomaly_over("anomaly_disabled_gbps"), low=1.05),
    Claim("§6.5 anomaly over a 64M working set", "above the plateau",
          _anomaly_over("large_ws_gbps"), low=1.05),
)
