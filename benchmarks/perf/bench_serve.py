"""Serving-gateway wall-clock benchmark — session throughput and the cache.

Measures, on this machine:

* gateway **throughput**: one closed-loop trace replayed end-to-end
  through ``Gateway`` + ``SloBudgetPolicy`` (one continuation per
  session chain on the fleet loop, SLO admission on every arrival),
  reporting sessions/sec and the wall clock normalized to 10^5 sessions
  — the scale the serving CLI is specified to sustain;
* serial vs sharded gateway wall clock at CI size, asserting the
  result dictionaries are identical while timing (byte-identity in
  depth is the determinism suite's job);
* the ``serve_slo`` experiment with the content-addressed result cache,
  cold then warm — the warm sweep must return the identical table.

The sharded row needs real CPUs to win: on a 1-CPU container the shard
workers time-slice one core and IPC overhead dominates, so speedup < 1
there is expected — ``cpu_count`` is recorded alongside so the numbers
read honestly (same methodology as ``BENCH_fleet.json``).  Throughput
and cache numbers are CPU-count-independent: the serving loop itself is
serial by design, and a warm sweep does no simulation at all.

Results are written to ``BENCH_serve.json`` so successive PRs can diff
wall-clock numbers.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py [--quick]
        [--shards N] [--output PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.experiments import serve_slo  # noqa: E402
from repro.experiments.cache import install_cache, uninstall_cache  # noqa: E402
from repro.experiments.fleet_scaling import SLOTS_PER_NODE  # noqa: E402
from repro.fleet import FleetService, make_policy, open_fleet  # noqa: E402
from repro.serve import (  # noqa: E402
    Gateway,
    ServeProfile,
    SloBudgetPolicy,
    synthesize,
)


def _build_trace(sessions: int, nodes: int, seed: int = 7):
    return synthesize(
        ServeProfile(load=1.5, followup_prob=0.3),
        sessions=sessions,
        fleet_slots=nodes * SLOTS_PER_NODE,
        seed=seed,
    )


def _replay(trace, nodes: int, shards: int = 1):
    """Build the fleet, replay ``trace`` through the gateway, tear down."""
    with open_fleet(nodes, shards=shards) as cluster:
        service = FleetService(
            cluster, make_policy("best-fit"), admission_policy=SloBudgetPolicy()
        )
        return Gateway(service, trace).run()


def bench_throughput(quick: bool) -> dict:
    sessions = 20_000 if quick else 100_000
    nodes = 4
    trace = _build_trace(sessions, nodes)
    with open_fleet(nodes) as cluster:
        service = FleetService(
            cluster, make_policy("best-fit"), admission_policy=SloBudgetPolicy()
        )
        start = time.perf_counter()
        result = Gateway(service, trace).run()
        wall_s = time.perf_counter() - start
    outcomes = result.session_outcomes()
    return {
        "sessions": sessions,
        "nodes": nodes,
        "chains": result.chains,
        "wall_s": round(wall_s, 3),
        "sessions_per_s": round(sessions / wall_s),
        "wall_per_100k_sessions_s": round(wall_s * 100_000 / sessions, 3),
        "completed": outcomes.get("completed", 0)
        + outcomes.get("replaced_completed", 0),
        "shed": outcomes.get("rejected_slo_shed", 0),
    }


def bench_sharded(shards: int, quick: bool) -> dict:
    sessions = 1_000 if quick else 4_000
    nodes = 4
    trace = _build_trace(sessions, nodes)
    # The finished throughput run is ~1.6M objects of cyclic garbage.  Left
    # for the collector to find mid-run, the full pass lands after the fork
    # and runs in both shard workers too, copying the whole heap page by
    # page (measured: sharded_s 0.75 -> 6 s); which arm it lands in depends
    # on allocation counts, so take it out of the timed region.
    gc.collect()

    start = time.perf_counter()
    serial_result = _replay(trace, nodes).to_dict()
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded_result = _replay(trace, nodes, shards).to_dict()
    sharded_s = time.perf_counter() - start

    assert sharded_result == serial_result, "sharded serving run diverged"
    return {
        "sessions": sessions,
        "shards": shards,
        "serial_s": round(serial_s, 3),
        "sharded_s": round(sharded_s, 3),
        "speedup": round(serial_s / sharded_s, 2),
    }


def bench_cache(quick: bool) -> dict:
    sessions = 600 if quick else 2_000
    with tempfile.TemporaryDirectory(prefix="bench-serve-cache-") as directory:
        cache = install_cache(directory)
        try:
            start = time.perf_counter()
            cold_table = serve_slo.run(sessions=sessions)
            cold_s = time.perf_counter() - start
            assert cache.hits == 0 and cache.stores > 0

            start = time.perf_counter()
            warm_table = serve_slo.run(sessions=sessions)
            warm_s = time.perf_counter() - start
            assert cache.misses == cache.stores, "warm sweep recomputed arms"
            assert warm_table.to_dict() == cold_table.to_dict(), (
                "warm sweep returned a different table"
            )
            summary = cache.summary()
        finally:
            uninstall_cache()
    return {
        "sessions": sessions,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_warm": round(cold_s / warm_s, 1),
        "arms": summary["stores"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--quick", action="store_true", help="CI-sized runs")
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args()

    results = {
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "methodology": (
            "throughput replays one closed-loop trace through the "
            "gateway with SLO admission on a serial fleet (the serving loop "
            "is serial by design, so sessions/sec is CPU-count-independent); "
            "the sharded row needs real CPUs to win and is recorded honestly "
            "either way; results are asserted identical serial-vs-sharded "
            "and cold-vs-warm while timing."
        ),
        "throughput": bench_throughput(args.quick),
        "sharded": bench_sharded(args.shards, args.quick),
        "cache": bench_cache(args.quick),
    }
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
