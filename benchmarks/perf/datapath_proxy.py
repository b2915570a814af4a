"""Deterministic host-cost proxies for the per-line DMA datapath.

Wall clock is noise on a 1-2 core CI host; these two counts are exact run
to run.  One MemBench job issues random single-line reads over 64 MB on an
8-socket OPTIMUS platform (the ``membench_hit`` cell at smoke size), and
over the measurement window the script reports, per completed line,

* **events scheduled** — the ``Engine._sequence`` delta: the event schedule
  is part of the timing contract (tests/test_event_schedule_pin.py), so
  this must *equal* the recorded value;
* **Python calls into src/repro** — ``sys.setprofile`` ``call`` events
  whose code lives in the package: the frames between events are what the
  datapath is allowed to shed, so this must *not exceed* the recorded value
  (recorded on CPython 3.11; 3.12 inlines comprehensions, so <= holds).

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

from repro.accel.membench import MODE_READ  # noqa: E402
from repro.experiments.harness import make_stack  # noqa: E402
from repro.mem import MB, PAGE_SIZE_2M  # noqa: E402
from repro.platform import PlatformParams  # noqa: E402
from repro.sim.clock import us  # noqa: E402

CELL = "membench_hit_1job_64mb_warmup20us_window12us_seed7"
WARMUP_US = 20
WINDOW_US = 12


def measure() -> dict:
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
    scheduled_before = engine._sequence

    package = str(SRC / "repro") + os.sep
    calls = 0

    def on_call(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(on_call)
    try:
        dispatched = engine.run(until_ps=engine.now + us(WINDOW_US))
    finally:
        sys.setprofile(None)
    lines = job.progress() - lines_before
    scheduled = engine._sequence - scheduled_before
    return {
        "lines": lines,
        "events_scheduled": scheduled,
        "events_dispatched": dispatched,
        "python_calls": calls,
        "events_per_line": round(scheduled / lines, 4),
        "calls_per_line": round(calls / lines, 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="BASELINE", help="fail on drift from this file")
    parser.add_argument("--record", metavar="BASELINE", help="write this file")
    options = parser.parse_args()
    measured = measure()
    print(json.dumps({CELL: measured}, indent=2))
    if options.record:
        document = {
            "_comment": (
                "Recorded datapath proxy counts for the CI perf-smoke gate "
                "(benchmarks/perf/datapath_proxy.py --check): lines and "
                "events_scheduled must match exactly (the event schedule is "
                "the timing contract), python_calls must not exceed the "
                "recording (CPython 3.11). Re-record with --record only after "
                "a deliberate change to the per-line chain, and say so in the PR."
            ),
            CELL: measured,
        }
        Path(options.record).write_text(json.dumps(document, indent=2) + "\n")
    if options.check:
        baseline = json.loads(Path(options.check).read_text())[CELL]
        problems = [
            f"{field}: measured {measured[field]} != recorded {baseline[field]}"
            for field in ("lines", "events_scheduled", "events_dispatched")
            if measured[field] != baseline[field]
        ]
        if measured["python_calls"] > baseline["python_calls"]:
            problems.append(
                f"python_calls: measured {measured['python_calls']} > recorded "
                f"{baseline['python_calls']} ({measured['calls_per_line']} vs "
                f"{baseline['calls_per_line']} per line)"
            )
        if problems:
            print("datapath proxy gate FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        print(
            f"datapath proxy gate ok: {measured['events_per_line']} events/line (exact), "
            f"{measured['calls_per_line']} <= {baseline['calls_per_line']} calls/line"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
