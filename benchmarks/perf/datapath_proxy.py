"""Deterministic host-cost proxies for the DMA datapath.

Wall clock is noise on a 1-2 core CI host; these counts are exact run to
run.  Two cells, each reporting over its measured stretch

* **events scheduled** — the ``Engine._sequence`` delta: the event schedule
  is part of the timing contract (tests/test_event_schedule_pin.py), so
  this must *equal* the recorded value;
* **Python calls into src/repro** — ``sys.setprofile`` ``call`` events
  whose code lives in the package: the frames between events are what the
  datapath is allowed to shed, so this must *not exceed* the recorded value
  (recorded on CPython 3.11; 3.12 inlines comprehensions, so <= holds).

``membench_hit``: one MemBench job issues random single-line reads over
64 MB on an 8-socket OPTIMUS platform (the stackbench cell at smoke size) —
the per-line event chain.  ``stream_burst``: the compute-bound sequential
reader of ``bench_simulator.py`` streams 1 MB on the pass-through platform
— the burst fast path, where ``committed_bursts`` and ``planned_bursts``
(memo misses: each one runs the burst's lines through the real per-line
chain on the fast path's sandbox, a fixed cost that does not grow with the
stream) are pinned too.

Usage::

    python benchmarks/perf/datapath_proxy.py                    # print the counts
    python benchmarks/perf/datapath_proxy.py --check benchmarks/baselines/datapath_ci.json
    python benchmarks/perf/datapath_proxy.py --record benchmarks/baselines/datapath_ci.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
sys.path.insert(0, str(SRC))

from bench_simulator import build_stream  # noqa: E402  (same directory)
from repro.accel.membench import MODE_READ  # noqa: E402
from repro.experiments.harness import make_stack  # noqa: E402
from repro.mem import MB, PAGE_SIZE_2M  # noqa: E402
from repro.platform import PlatformParams  # noqa: E402
from repro.sim.clock import ms, us  # noqa: E402

WARMUP_US = 20
WINDOW_US = 12
STREAM_MB = 1

#: Compared with ``<=``, and the ratios derived from them; every other
#: field of a cell must equal the recording.
NOT_EXACT = ("python_calls", "events_per_line", "calls_per_line")


def _counted(engine, run):
    """``run()`` under a profiler counting calls into the package:
    ``(run's result, {events_scheduled, python_calls})``."""
    package = str(SRC / "repro") + os.sep
    calls = 0

    def on_call(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    scheduled_before = engine._sequence
    sys.setprofile(on_call)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, {
        "events_scheduled": engine._sequence - scheduled_before,
        "python_calls": calls,
    }


def _per_line(counts: dict) -> dict:
    counts["events_per_line"] = round(counts["events_scheduled"] / counts["lines"], 4)
    counts["calls_per_line"] = round(counts["python_calls"] / counts["lines"], 4)
    return counts


def measure_membench() -> dict:
    stack = make_stack("optimus", PlatformParams(page_size=PAGE_SIZE_2M), n_accelerators=8)
    job = stack.launch(
        "MB",
        physical_index=0,
        working_set=64 * MB,
        job_kwargs={"functional": False, "seed": 7, "mode": MODE_READ},
    )
    engine = stack.platform.engine
    engine.run(until_ps=engine.now + us(WARMUP_US))
    lines_before = job.progress()
    dispatched, counts = _counted(
        engine, lambda: engine.run(until_ps=engine.now + us(WINDOW_US))
    )
    return _per_line({
        "lines": job.progress() - lines_before,
        "events_scheduled": counts["events_scheduled"],
        "events_dispatched": dispatched,
        "python_calls": counts["python_calls"],
    })


def measure_stream_burst() -> dict:
    platform, done = build_stream(fast=True, total_bytes=STREAM_MB * MB)
    engine = platform.engine
    _, counts = _counted(engine, lambda: engine.run_until(done, limit_ps=ms(500)))
    fastpath = platform.sockets[0].dma.fastpath
    return _per_line({
        "lines": fastpath.committed_lines,
        "committed_bursts": fastpath.committed_bursts,
        "planned_bursts": fastpath.planned_bursts,
        **counts,
    })


CELLS = {
    f"membench_hit_1job_64mb_warmup{WARMUP_US}us_window{WINDOW_US}us_seed7": measure_membench,
    f"stream_burst_passthrough_{STREAM_MB}mb_compute_bound_reader": measure_stream_burst,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="BASELINE", help="fail on drift from this file")
    parser.add_argument("--record", metavar="BASELINE", help="write this file")
    options = parser.parse_args()
    measured = {cell: measure() for cell, measure in CELLS.items()}
    print(json.dumps(measured, indent=2))
    if options.record:
        document = {
            "_comment": (
                "Recorded datapath proxy counts for the CI perf-smoke gate "
                "(benchmarks/perf/datapath_proxy.py --check): per cell, "
                "python_calls must not exceed the recording (CPython 3.11) "
                "and every other count must match it exactly (the event "
                "schedule is the timing contract; committed_bursts and "
                "planned_bursts are the burst governor's and the plan "
                "memo's; the stream cell's python_calls include its three "
                "memo misses, each a burst's lines run through the real "
                "per-line chain on the fast path's sandbox, a fixed cost "
                "per run that does not grow with the stream). Re-record with "
                "--record only after a deliberate change to the per-line "
                "chain or the burst path, and say so in the PR."
            ),
            **measured,
        }
        Path(options.record).write_text(json.dumps(document, indent=2) + "\n")
    if options.check:
        baselines = json.loads(Path(options.check).read_text())
        problems = []
        for cell, counts in measured.items():
            baseline = baselines[cell]
            problems += [
                f"{cell}: {field}: measured {counts[field]} != recorded {baseline[field]}"
                for field in counts
                if field not in NOT_EXACT and counts[field] != baseline[field]
            ]
            if counts["python_calls"] > baseline["python_calls"]:
                problems.append(
                    f"{cell}: python_calls: measured {counts['python_calls']} > recorded "
                    f"{baseline['python_calls']} ({counts['calls_per_line']} vs "
                    f"{baseline['calls_per_line']} per line)"
                )
        if problems:
            print("datapath proxy gate FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        for cell, counts in measured.items():
            print(
                f"datapath proxy gate ok: {cell}: {counts['events_per_line']} events/line "
                f"(exact), {counts['calls_per_line']} <= "
                f"{baselines[cell]['calls_per_line']} calls/line"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
