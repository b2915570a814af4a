"""Deterministic host-cost proxies for the DMA datapath and the serving loop.

Wall clock is noise on a 1-2 core CI host; these counts are exact run to
run.  Four cells, each reporting over its measured stretch

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
stream) are pinned too.  ``fleet_admission`` and ``gateway_sessions``: the
stackbench fleet traces at smoke size (300 requests through best-fit
admission on 8 nodes at load 1.5; 500 gateway sessions with SLO shedding
on 4 nodes), counted per request and per session over ``serve()`` and
``Gateway.run()`` — the serving loop's per-event and per-placement work.

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

FLEET_REQUESTS = 300
GATEWAY_SESSIONS = 500


def _exact(field: str) -> bool:
    """``python_calls`` is compared with ``<=`` and the per-unit ratios are
    derived; every other field of a cell must equal the recording."""
    return field != "python_calls" and "_per_" not in field


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


def _per_unit(counts: dict, unit: str = "line") -> dict:
    work = counts[f"{unit}s"]
    counts[f"events_per_{unit}"] = round(counts["events_scheduled"] / work, 4)
    counts[f"calls_per_{unit}"] = round(counts["python_calls"] / work, 4)
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
    return _per_unit({
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
    return _per_unit({
        "lines": fastpath.committed_lines,
        "committed_bursts": fastpath.committed_bursts,
        "planned_bursts": fastpath.planned_bursts,
        **counts,
    })


def measure_fleet_admission() -> dict:
    from repro.fleet import (
        AdmissionConfig,
        FleetCluster,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        make_policy,
    )

    cluster = FleetCluster.build(8, max_oversub=2)
    service = FleetService(
        cluster, make_policy("best-fit"), admission=AdmissionConfig(queue_limit=16)
    )
    requests = TrafficGenerator(
        TrafficProfile(load=1.5), fleet_slots=cluster.total_slots, seed=6
    ).generate(FLEET_REQUESTS)
    result, counts = _counted(service.engine, lambda: service.serve(requests))
    summary = result.summary()
    return _per_unit({
        "requests": len(requests),
        "placements": summary["placements"],
        "retries": summary["retries"],
        "rejections": summary["rejections"],
        **counts,
    }, "request")


def measure_gateway_sessions() -> dict:
    from repro.fleet import FleetCluster, FleetService, make_policy
    from repro.serve import Gateway, ServeProfile, SloBudgetPolicy, synthesize

    cluster = FleetCluster.build(4)
    trace = synthesize(
        ServeProfile(load=1.5, followup_prob=0.3),
        sessions=GATEWAY_SESSIONS,
        fleet_slots=cluster.total_slots,
        seed=7,
    )
    service = FleetService(
        cluster, make_policy("best-fit"), admission_policy=SloBudgetPolicy()
    )
    result, counts = _counted(service.engine, Gateway(service, trace).run)
    outcomes = result.session_outcomes()
    return _per_unit({
        "sessions": result.sessions,
        "completed": outcomes.get("completed", 0),
        "shed": outcomes.get("rejected_slo_shed", 0),
        **counts,
    }, "session")


CELLS = {
    f"membench_hit_1job_64mb_warmup{WARMUP_US}us_window{WINDOW_US}us_seed7": measure_membench,
    f"stream_burst_passthrough_{STREAM_MB}mb_compute_bound_reader": measure_stream_burst,
    f"fleet_admission_8nodes_{FLEET_REQUESTS}requests_best_fit_load1.5_seed6": (
        measure_fleet_admission
    ),
    f"gateway_sessions_4nodes_{GATEWAY_SESSIONS}sessions_slo_budget_seed7": (
        measure_gateway_sessions
    ),
}


def _unit(counts: dict) -> str:
    return next(field[len("calls_per_"):] for field in counts if field.startswith("calls_per_"))


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
                "per run that does not grow with the stream). The fleet_admission "
                "and gateway_sessions cells count the serving loop per request "
                "and per session; their events and outcome counts are exact. "
                "Re-record with --record only after a deliberate change to the "
                "per-line chain, the burst path or the serving loop, and say so "
                "in the PR."
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
                if _exact(field) and counts[field] != baseline[field]
            ]
            if counts["python_calls"] > baseline["python_calls"]:
                per = f"calls_per_{_unit(counts)}"
                problems.append(
                    f"{cell}: python_calls: measured {counts['python_calls']} > recorded "
                    f"{baseline['python_calls']} ({counts[per]} vs "
                    f"{baseline[per]} per {_unit(counts)})"
                )
        if problems:
            print("datapath proxy gate FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        for cell, counts in measured.items():
            unit = _unit(counts)
            print(
                f"datapath proxy gate ok: {cell}: {counts[f'events_per_{unit}']} "
                f"events/{unit} (exact), {counts[f'calls_per_{unit}']} <= "
                f"{baselines[cell][f'calls_per_{unit}']} calls/{unit}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
