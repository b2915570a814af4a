"""Simulator wall-clock microbenchmark — the perf trajectory's baseline.

Measures, on this machine:

* raw engine throughput (events/s draining a full heap of timed events,
  and a zero-delay chain that keeps the heap at one entry);
* a commit-heavy streaming run (burst coalescing on vs off), where the
  analytic burst path replaces per-line event chains;
* one Fig. 6 cell (the OPTIMUS per-line hot path end to end);
* a Fig. 5 sweep, three ways: reference mode serial, fast mode serial,
  and fast mode with ``--jobs`` process fan-out.

``BASELINE_BEFORE_PR`` records the same workloads measured at the
pre-fast-path revision of this repository on the same host, so the JSON
carries honest before/after pairs; ``--jobs`` scaling additionally
depends on ``cpu_count`` (recorded alongside — a 1-CPU container cannot
show fan-out wins).  Simulated results are asserted identical between
modes while measuring (the equivalence suite proves it in depth), and
the simulated finish times below were verified identical to the pre-PR
revision as well.

Results are written to ``BENCH_simulator.json`` so successive PRs can
diff wall-clock numbers.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_simulator.py [--jobs N]
        [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.experiments import fig5_latency, fig6_throughput  # noqa: E402
from repro.guest import NativeAccelerator  # noqa: E402
from repro.hv import PassthroughHypervisor  # noqa: E402
from repro.mem import MB, PAGE_SIZE_2M  # noqa: E402
from repro.platform import PlatformMode, PlatformParams, build_platform  # noqa: E402
from repro.sim.clock import ms  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402


#: The same workloads measured at the pre-fast-path revision of this repo
#: (the commit before this benchmark existed), CPython 3.11, same host as
#: the committed BENCH_simulator.json.  Kept as constants because that
#: revision has no benchmark harness to re-run.
BASELINE_BEFORE_PR = {
    "note": "measured at the pre-fast-path revision on the same host",
    "stream_8mb_s": 3.80,
    "fig6_cell_64m_1job_s": 8.08,
}


def bench_engine(n_events: int) -> dict:
    """Raw event dispatch: a full heap of timed events vs a zero-delay
    chain (a one-entry heap: scheduling and dispatch cost, no sifting)."""

    def noop() -> None:
        pass

    engine = Engine()
    for i in range(n_events):
        engine.call_at(i + 1, noop)
    start = time.perf_counter()
    engine.run()
    timed_s = time.perf_counter() - start

    engine = Engine()
    remaining = [n_events]

    def chain() -> None:
        remaining[0] -= 1
        if remaining[0]:
            engine.call_after(0, chain)

    engine.call_after(0, chain)
    start = time.perf_counter()
    engine.run()
    zero_delay_s = time.perf_counter() - start
    return {
        "n_events": n_events,
        "timed_events_per_s": round(n_events / timed_s),
        "zero_delay_events_per_s": round(n_events / zero_delay_s),
    }


def _fig5_grid(quick: bool) -> dict:
    if quick:
        return {"working_sets": ["64M"], "job_counts": [1, 2], "hops_per_job": 200}
    return {
        "working_sets": ["64M", "1G"],
        "job_counts": [1, 2],
        "hops_per_job": 400,
    }


def _run_fig5(fast: bool, jobs: int, quick: bool):
    os.environ["REPRO_FAST_PATH"] = "1" if fast else "0"
    try:
        start = time.perf_counter()
        tables = fig5_latency.run(page_size=PAGE_SIZE_2M, jobs=jobs, **_fig5_grid(quick))
        elapsed = time.perf_counter() - start
    finally:
        del os.environ["REPRO_FAST_PATH"]
    rows = {label: table.rows for label, table in tables.items()}
    return elapsed, rows


def bench_fig5_sweep(jobs: int, quick: bool) -> dict:
    ref_s, ref_rows = _run_fig5(fast=False, jobs=1, quick=quick)
    fast_s, fast_rows = _run_fig5(fast=True, jobs=1, quick=quick)
    fast_jobs_s, fast_jobs_rows = _run_fig5(fast=True, jobs=jobs, quick=quick)
    assert fast_rows == ref_rows, "fast mode changed Fig. 5 results"
    assert fast_jobs_rows == ref_rows, "--jobs changed Fig. 5 results"
    return {
        "grid": _fig5_grid(quick),
        "jobs": jobs,
        "reference_serial_s": round(ref_s, 3),
        "fast_serial_s": round(fast_s, 3),
        "fast_jobs_s": round(fast_jobs_s, 3),
        "speedup_fast_serial": round(ref_s / fast_s, 2),
        "speedup_fast_jobs": round(ref_s / fast_jobs_s, 2),
    }


def _make_reader():
    from repro.accel.base import AcceleratorProfile
    from repro.accel.streaming import StreamingJob
    from repro.fpga.resources import ResourceFootprint

    class ComputeBoundReader(StreamingJob):
        # Slow enough that the DMA pipeline drains between tiles — the
        # regime where bursts commit on the analytic fast path.
        profile = AcceleratorProfile(
            name="RD0",
            description="compute-bound streaming reader (benchmark)",
            loc_verilog=0,
            freq_mhz=400.0,
            footprint=ResourceFootprint(alm_pct=1.0, bram_pct=1.0),
            max_outstanding=64,
        )
        bytes_per_cycle = 4.0
        output_ratio = 0.0
        tile_lines = 64
        prefetch_tiles = 2

    return ComputeBoundReader(functional=False)


def build_stream(fast: bool, total_bytes: int):
    """The coalescing cell, started but not run: ``(platform, done)``."""
    from repro.accel.streaming import REG_LEN, REG_SRC

    params = PlatformParams(speculative_region_opt=False, fast_path=fast)
    platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
    hypervisor = PassthroughHypervisor(platform)
    handle = NativeAccelerator(hypervisor, window_bytes=64 * MB)
    src = handle.alloc_buffer(total_bytes)
    job = _make_reader()
    job.regs.update({REG_SRC: src, REG_LEN: total_bytes})
    return platform, hypervisor.start_job(job)


def _run_stream(fast: bool, total_bytes: int):
    platform, done = build_stream(fast, total_bytes)
    start = time.perf_counter()
    platform.engine.run_until(done, limit_ps=ms(500))
    elapsed = time.perf_counter() - start
    return elapsed, platform.engine.now, platform.sockets[0].dma.fastpath


def bench_coalescing(quick: bool) -> dict:
    total = (2 if quick else 8) * MB
    ref_s, ref_now, _ = _run_stream(fast=False, total_bytes=total)
    fast_s, fast_now, fastpath = _run_stream(fast=True, total_bytes=total)
    assert fast_now == ref_now, "coalescing changed the simulated finish time"
    result = {
        "stream_bytes": total,
        "reference_s": round(ref_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(ref_s / fast_s, 2),
        "committed_bursts": fastpath.committed_bursts,
        # Memo misses: the bursts planned on the fast path's sandbox.
        "planned_bursts": fastpath.planned_bursts,
        "simulated_ps": ref_now,
    }
    if not quick:
        # Full mode runs the same 8 MB stream as the recorded baseline.
        result["speedup_vs_before_pr"] = round(
            BASELINE_BEFORE_PR["stream_8mb_s"] / fast_s, 2
        )
    return result


def _run_fig6_cell(fast: bool):
    os.environ["REPRO_FAST_PATH"] = "1" if fast else "0"
    try:
        start = time.perf_counter()
        table = fig6_throughput.run(
            page_size=PAGE_SIZE_2M, working_sets=["64M"], job_counts=[1]
        )
        elapsed = time.perf_counter() - start
    finally:
        del os.environ["REPRO_FAST_PATH"]
    return elapsed, table.rows


def bench_fig6_cell() -> dict:
    """One Fig. 6 MemBench cell — the OPTIMUS per-line event chain end to end.

    Unlike the coalescing stream, MemBench's random-access pattern keeps the
    reference per-line path live, so this measures the engine/hot-path work
    rather than the burst commit path.
    """
    ref_s, ref_rows = _run_fig6_cell(fast=False)
    fast_s, fast_rows = _run_fig6_cell(fast=True)
    assert fast_rows == ref_rows, "fast mode changed the Fig. 6 cell"
    return {
        "cell": {"working_set": "64M", "jobs": 1},
        "reference_s": round(ref_s, 3),
        "fast_s": round(fast_s, 3),
        "rows": fast_rows,
        "speedup_vs_before_pr": round(
            BASELINE_BEFORE_PR["fig6_cell_64m_1job_s"] / fast_s, 2
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=max(1, (os.cpu_count() or 2) // 2))
    parser.add_argument("--quick", action="store_true", help="CI-sized grids")
    parser.add_argument("--output", default="BENCH_simulator.json")
    args = parser.parse_args()

    results = {
        "quick": args.quick,
        # CPUs this process may run on (os.cpu_count() ignores the affinity
        # mask a container sets).
        "cpu_count": len(os.sched_getaffinity(0)),
        "methodology": (
            "--jobs sweeps dispatch through a persistent fork pool, and only "
            "when a probed first cell clears the dispatch-cost heuristic "
            "(repro.parallel.pool.dispatch_plan); small or cheap grids stay "
            "serial instead of paying pool latency, so fast_jobs_s tracks "
            "fast_serial_s on hosts where fan-out cannot win (see cpu_count)."
        ),
        "baseline_before_pr": BASELINE_BEFORE_PR,
        "engine": bench_engine(100_000 if args.quick else 500_000),
        "coalescing": bench_coalescing(args.quick),
        "fig5_sweep": bench_fig5_sweep(args.jobs, args.quick),
    }
    if not args.quick:
        results["fig6_cell"] = bench_fig6_cell()
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
