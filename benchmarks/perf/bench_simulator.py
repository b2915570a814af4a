"""Simulator wall-clock microbenchmark — the perf trajectory's baseline.

Measures, on this machine:

* raw engine throughput (events/s draining a full heap of timed events,
  and a zero-delay chain that keeps the heap at one entry);
* a commit-heavy pass-through streaming run with burst coalescing on vs
  off (``PlatformParams(fast_path=...)``), where the analytic burst path
  replaces per-line event chains — the one cell where the switch runs
  different code;
* one Fig. 6 cell (the OPTIMUS per-line hot path end to end);
* a Fig. 5 sweep, two ways: serial and with ``--jobs`` process fan-out;
* startup: wall time and peak RSS of fresh interpreters running
  ``python -m repro --help``, ``python -m repro run table2`` and
  ``import repro.experiments.harness`` (median of 5 each).

``BASELINE_BEFORE_PR`` records the same workloads measured at the
pre-fast-path revision of this repository on the same host, so the JSON
carries honest before/after pairs; ``--jobs`` scaling additionally
depends on ``cpu_count`` (recorded alongside — a 1-CPU container cannot
show fan-out wins).  Simulated results are asserted identical between
the two arms of each comparison while measuring (the equivalence suite
proves it in depth).

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
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
sys.path.insert(0, str(SRC))

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


def _run_fig5(jobs: int, quick: bool):
    start = time.perf_counter()
    tables = fig5_latency.sweep(page_size=PAGE_SIZE_2M, jobs=jobs, **_fig5_grid(quick))
    elapsed = time.perf_counter() - start
    rows = {label: table.rows for label, table in tables.items()}
    return elapsed, rows


def bench_fig5_sweep(jobs: int, quick: bool) -> dict:
    serial_s, serial_rows = _run_fig5(jobs=1, quick=quick)
    jobs_s, jobs_rows = _run_fig5(jobs=jobs, quick=quick)
    assert jobs_rows == serial_rows, "--jobs changed Fig. 5 results"
    return {
        "grid": _fig5_grid(quick),
        "jobs": jobs,
        "serial_s": round(serial_s, 3),
        "jobs_s": round(jobs_s, 3),
        "speedup_jobs": round(serial_s / jobs_s, 2),
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


def bench_fig6_cell() -> dict:
    """One Fig. 6 MemBench cell — the OPTIMUS per-line event chain end to end.

    OPTIMUS never attaches the burst fast path, so this measures the
    engine/hot-path work of the per-line datapath.
    """
    start = time.perf_counter()
    table = fig6_throughput.sweep(
        page_size=PAGE_SIZE_2M, working_sets=["64M"], job_counts=[1]
    )
    wall_s = time.perf_counter() - start
    return {
        "cell": {"working_set": "64M", "jobs": 1},
        "wall_s": round(wall_s, 3),
        "rows": table.rows,
        "speedup_vs_before_pr": round(
            BASELINE_BEFORE_PR["fig6_cell_64m_1job_s"] / wall_s, 2
        ),
    }


#: Fresh-interpreter commands timed by :func:`bench_startup`.
STARTUP_COMMANDS = {
    "help": ["-m", "repro", "--help"],
    "run_table2": ["-m", "repro", "run", "table2", "--no-cache", "--json"],
    "import_harness": ["-c", "import repro.experiments.harness"],
}

#: The same commands at the revision before the datapath and the CLI
#: parser stopped importing numpy and the fleet stack, on the host of the
#: committed BENCH_simulator.json (2 CPUs, CPython 3.11): median of 5 fresh
#: interpreters each.  Kept as constants, like BASELINE_BEFORE_PR.
STARTUP_BEFORE = {
    "help": {"wall_s": 0.281, "maxrss_mb": 36.0},
    "run_table2": {"wall_s": 0.279, "maxrss_mb": 36.0},
    "import_harness": {"wall_s": 0.199, "maxrss_mb": 33.5},
}


#: Times ``runs`` children and reports (wall s, exit code, ru_maxrss KB) for
#: each.  A child's ``ru_maxrss`` counts the RSS of the process it was forked
#: from, so the children are started by this small launcher and not by the
#: benchmark process, which by then holds ~100 MB.
_LAUNCHER = """
import json, os, subprocess, sys, time
samples = []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    child = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(child.pid, 0)
    samples.append((time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss))
print(json.dumps(samples))
"""


def bench_startup(runs: int = 5) -> dict:
    """What a user waits for before any simulation starts: the median wall
    time and peak RSS of ``runs`` fresh interpreters per command."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    commands = {}
    for name, argv in STARTUP_COMMANDS.items():
        launched = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, str(runs), sys.executable, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        samples = json.loads(launched.stdout)
        assert all(code == 0 for _, code, _ in samples), f"{argv} failed: {samples}"
        commands[name] = {
            "argv": ["python", *argv],
            "wall_s": round(statistics.median(wall for wall, _, _ in samples), 3),
            # ru_maxrss is in KB on Linux.
            "maxrss_mb": round(statistics.median(kb for _, _, kb in samples) / 1024, 1),
            "before": STARTUP_BEFORE[name],
        }
    return {"runs": runs, "commands": commands}


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
            "serial instead of paying pool latency, so jobs_s tracks "
            "serial_s on hosts where fan-out cannot win (see cpu_count)."
        ),
        "baseline_before_pr": BASELINE_BEFORE_PR,
        "engine": bench_engine(100_000 if args.quick else 500_000),
        "coalescing": bench_coalescing(args.quick),
        "fig5_sweep": bench_fig5_sweep(args.jobs, args.quick),
        "startup": bench_startup(),
    }
    if not args.quick:
        results["fig6_cell"] = bench_fig6_cell()
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
