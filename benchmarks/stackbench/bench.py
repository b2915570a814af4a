"""One benchmark for the whole stack: seven workloads, host-time metrics
end to end, and a traced run that charges host time to layers.

Two ways to run it, one code path::

    python3 benchmarks/stackbench/bench.py                      # all seven workloads
    python3 benchmarks/stackbench/bench.py --workload membench_hit \\
        --seed 3 --seconds 10 --trace 0                         # one workload, for a driver

The first prints every metric by name with its unit, writes
``out/results.json``, the Chrome-trace spans and the per-layer tables, and
exits non-zero on any failed check.  The second is the contract of
``BENCHMARK.json``: it measures one workload for ``--seconds`` and prints,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer (``--trace 1``)
metrics.  ``--compare A.json B.json`` compares two result files;
``--update-expected`` re-pins ``expected.json``.  See README.md.

Run protocol.  Each (workload, repetition) is a fresh ``worker.py``
process with ``PYTHONHASHSEED=0``; repetitions are interleaved round-robin
over workloads so a burst of host interference is spread over all of
them, and processes run one at a time (only ``fleet_sharded`` forks, into
two workers).  Every time is multiplied by the host-speed factor its
repetition measured around the timed call, and the median over
repetitions is reported.  After the untraced repetitions one traced
repetition wraps the same timed call in ``cProfile``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 7
REP_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Simulated counters a workload's ``finish`` may report (exact).
COUNTERS = (
    "interconnect.link_packets",
    "mem.iotlb_hits", "mem.iotlb_misses", "mem.iotlb_miss_ratio", "mem.iotlb_evictions",
    "accel.sim_gbps", "accel.sim_latency_p50_ns", "accel.sim_latency_p99_ns",
    "platform.bursts_committed", "platform.bursts_declined", "platform.lines_committed",
    "fleet.placements", "fleet.rejections", "fleet.queued", "fleet.retries",
    "serve.completed", "serve.shed", "serve.chains",
    "parallel.messages", "parallel.frames", "parallel.frame_bytes",
    "parallel.stall_waits", "parallel.grants", "parallel.rollbacks", "parallel.gathers",
)
HOST_TIMES = (
    "parallel.barrier_stall_s", "parallel.worker_cpu_s", "parallel.close_s",
    "parallel.vs_serial_ratio",
)
BENCH = (
    "bench.trace_overhead", "bench.layer_sum_ratio", "bench.sim_ps",
    "bench.calls_per_work", "bench.host_speed", "bench.raw_wall_s", "bench.reps",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name in ("bench.trace_overhead", "bench.host_speed"):
        return "ratio"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_ps"):
        return "ps"
    if name.endswith("_gbps"):
        return "GB/s"
    return "count"


def _per_layer_names() -> List[str]:
    names = []
    for bucket in layers.BUCKETS:
        names.append(f"{bucket}.self_s")
        if not bucket.startswith("host."):
            names.append(f"{bucket}.calls")
    return names + list(layers.ENTRY_METRICS) + list(COUNTERS + HOST_TIMES + BENCH)


PER_LAYER = {name: _unit(name) for name in _per_layer_names()}


# -- running repetitions ---------------------------------------------------------


def _end_group(pgid: int) -> bool:
    """Kill what is left of a repetition's process group; wait until it is gone.

    Returns whether anything had outlived the repetition's own process.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    return True


def run_rep(workload: str, seed: int, size: str, traced: bool) -> Dict[str, object]:
    """One repetition in a fresh process; ``{"error": ...}`` if it did not finish."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--traced", str(int(traced)), "--spawned", repr(time.monotonic()),
    ]
    # Its own session, so shard workers it may leave behind can be found.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT), start_new_session=True,
    )
    try:
        try:
            out, err = process.communicate(timeout=REP_TIMEOUT_S)
            error = None if process.returncode == 0 else f"exit {process.returncode}: {err[-2000:]}"
        except subprocess.TimeoutExpired:
            process.kill()
            out, err = process.communicate()
            error = f"timed out after {REP_TIMEOUT_S:.0f} s"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        orphans = _end_group(process.pid)
    if error is None:
        try:
            document = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = f"no result on standard output: {out[-500:]!r}"
    if error is not None:
        document = {"workload": workload, "seed": seed, "traced": traced, "error": error}
    document["orphans"] = orphans
    return document


class Run:
    """The repetitions of one invocation, grouped by workload."""

    def __init__(self, names: Sequence[str], seed: int, size: str) -> None:
        self.names = list(names)
        self.seed = seed
        self.size = size
        #: Workloads measured only as another one's reference, not reported.
        self.references = (
            ["fleet_admission"]
            if "fleet_sharded" in self.names and "fleet_admission" not in self.names
            else []
        )
        self.reps: Dict[str, List[Dict[str, object]]] = {
            name: [] for name in self.names + self.references
        }
        self.traced: Dict[str, Dict[str, object]] = {}
        self.passes = 0

    def one_pass(self) -> None:
        for name in self.names + (self.references if self.passes == 0 else []):
            document = run_rep(name, self.seed, self.size, False)
            document["rep"] = self.passes
            self.reps[name].append(document)
        self.passes += 1

    def traced_pass(self) -> None:
        for name in self.names:
            document = run_rep(name, self.seed, self.size, True)
            document["rep"] = self.passes
            self.traced[name] = document


# -- reducing repetitions to metrics ---------------------------------------------


def _stat(values: Sequence[float]) -> Dict[str, float]:
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def _median(reps: Sequence[Dict[str, object]], key: str, scaled: bool = True) -> float:
    """Median over repetitions, each at its own nominal host speed."""
    return statistics.median(rep[key] * (rep["speed"] if scaled else 1.0) for rep in reps)


def _exact(rep: Dict[str, object]) -> Dict[str, object]:
    return {"digest": rep["digest"], "work": rep["work"], "counters": rep["counters"]}


def summarise(run: Run, name: str, expected: Dict[str, object]) -> Dict[str, object]:
    """End-to-end metrics, per-layer metrics and checks of one workload."""
    reps = run.reps[name]
    traced = run.traced.get(name)
    good = [rep for rep in reps if "error" not in rep]
    checks: List[Dict[str, object]] = []

    def check(what: str, ok: bool, detail: str = "") -> None:
        checks.append({"check": what, "ok": bool(ok), "detail": "" if ok else detail})

    for rep in reps + ([traced] if traced else []):
        label = f"{name} rep {rep['rep']}" + (" (traced)" if rep["traced"] else "")
        check(f"{label}: ran", "error" not in rep, str(rep.get("error")))
        check(f"{label}: left no process behind", not rep["orphans"], "its process group outlived it")
        check(
            f"{label}: repeats rep 0 exactly",
            "error" not in rep and bool(good) and _exact(rep) == _exact(good[0]),
            "digest, work or simulated counters differ from the first repetition",
        )
    summary: Dict[str, object] = {"unit_of_work": workloads.WORK_UNITS[name], "checks": checks}
    if not good or (traced is not None and "error" in traced):
        return summary

    first = good[0]
    pins = expected.get(run.size, {}) if run.seed == DEFAULT_SEED else {}
    if name in pins:
        check(
            f"{name}: equals the pinned result",
            _exact(first) == pins[name],
            "expected.json disagrees (re-pin with --update-expected only on purpose)",
        )
    if name == "fleet_sharded":
        serial = [rep for rep in run.reps["fleet_admission"] if "error" not in rep]
        check(
            f"{name}: byte-identical to fleet_admission",
            bool(serial) and serial[0]["digest"] == first["digest"],
            "the sharded summary differs from the serial one",
        )
    if run.size == "full":
        reason = workloads.regime_failure(
            name, first["counters"], traced["layers"] if traced else None
        )
        check(f"{name}: in its regime", reason is None, str(reason))

    wall_s = _median(good, "wall_s")
    values = {
        "wall_s": wall_s,
        "cpu_s": _median(good, "cpu_s"),
        "work_per_s": first["work"] / wall_s,
        "setup_s": _median(good, "setup_s"),
        "peak_rss_mb": _median(good, "peak_rss_mb", scaled=False),
    }
    summary["end_to_end"] = {
        metric: {
            "value": values[metric],
            "unit": unit,
            # The readings as taken, before scaling: n, median, min, max.
            "raw": _stat([rep[metric] for rep in good]) if metric != "work_per_s" else None,
        }
        for metric, unit in END_TO_END.items()
    }
    summary["exact"] = _exact(first)

    if traced is not None:
        per_layer = dict.fromkeys(PER_LAYER, 0.0)
        per_layer.update(traced["layers"])
        per_layer.pop("repro.calls")
        per_layer.update(traced["counters"])
        per_layer.update(traced["host_times"])
        layer_sum = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
        per_layer.update(
            {
                "bench.trace_overhead": traced["wall_s"] * traced["speed"] / wall_s,
                "bench.layer_sum_ratio": layer_sum / traced["wall_s"],
                "bench.sim_ps": traced["sim_ps"],
                "bench.calls_per_work": traced["layers"]["repro.calls"] / traced["work"],
                "bench.host_speed": _median(good, "speed", scaled=False),
                "bench.raw_wall_s": _median(good, "wall_s", scaled=False),
                "bench.reps": len(good),
            }
        )
        if name == "fleet_sharded":
            per_layer.update(
                {
                    "parallel.worker_cpu_s": _median(good, "cpu_children_s"),
                    "parallel.close_s": _median(good, "close_s"),
                    "parallel.vs_serial_ratio": wall_s / _median(serial, "wall_s"),
                }
            )
        check(
            f"{name}: layer self times add up to the traced wall time",
            abs(per_layer["bench.layer_sum_ratio"] - 1.0) <= 0.02,
            f"ratio {per_layer['bench.layer_sum_ratio']:.4f}",
        )
        summary["per_layer"] = {
            metric: {"value": per_layer[metric], "unit": unit}
            for metric, unit in PER_LAYER.items()
        }
        summary["exact"]["calls"] = {
            key: value for key, value in traced["layers"].items() if not key.endswith("_s")
        }
        summary["top"] = traced["top"]
    return summary


# -- reporting -------------------------------------------------------------------


def _host_facts() -> Dict[str, object]:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
            timeout=10,
            # A checkout that is no repository has no commit: do not look above it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "commit": commit,
    }


def _failures(summary: Dict[str, object]) -> List[Dict[str, object]]:
    return [entry for entry in summary["checks"] if not entry["ok"]]


def print_summary(name: str, summary: Dict[str, object]) -> None:
    checks = summary["checks"]
    failed = _failures(summary)
    print(f"\n== {name} [{summary['unit_of_work']}] ==")
    for metric, entry in summary.get("end_to_end", {}).items():
        raw = entry["raw"]
        spread = (
            f"  raw n={raw['n']} median={raw['median']:.4f} min={raw['min']:.4f} max={raw['max']:.4f}"
            if raw else ""
        )
        print(f"  {metric:<14} {entry['value']:>14.4f} {entry['unit']:<4}{spread}")
    if "per_layer" in summary:
        print(f"  calls_per_work {summary['per_layer']['bench.calls_per_work']['value']:>14.2f} count")
    print(f"  fail_share     {len(failed) / len(checks):>14.4f} ratio  ({len(failed)} failed of {len(checks)} checks)")
    for entry in failed:
        print(f"  FAILED {entry['check']}: {entry['detail']}")
    if "per_layer" in summary:
        print("  -- per layer (traced repetition; zero rows omitted) --")
        for metric, entry in summary["per_layer"].items():
            if entry["value"]:
                print(f"  {metric:<30} {entry['value']:>16.6g} {entry['unit']}")


def chrome_trace(run: Run) -> Dict[str, object]:
    """Bench-level spans of every repetition as Chrome-trace complete events."""
    events = []
    everything = [rep for reps in run.reps.values() for rep in reps] + list(run.traced.values())
    for pid, rep in enumerate(sorted(everything, key=lambda r: r.get("spans", [{}])[0].get("start", 0))):
        for span in rep.get("spans", []):
            events.append(
                {
                    "name": span["name"], "ph": "X", "pid": pid, "tid": 0,
                    "ts": span["start"] * 1e6, "dur": (span["end"] - span["start"]) * 1e6,
                    "args": {
                        "parent": span["parent"], "workload": rep["workload"],
                        "rep": rep["rep"], "traced": rep["traced"],
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_outputs(out: Path, run: Run, document: Dict[str, object]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps(document, indent=1) + "\n")
    (out / "spans.trace.json").write_text(json.dumps(chrome_trace(run)) + "\n")
    lines = []
    for name, summary in document["workloads"].items():
        lines.append(f"== {name}: functions with the most self time (traced repetition) ==")
        for self_s, calls, label in summary.get("top", []):
            lines.append(f"  {self_s:10.4f} s  {calls:>9} calls  {label}")
    (out / "layers.txt").write_text("\n".join(lines) + "\n")


# -- comparing two result files --------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """0 iff B repeats A: times within the bounds, exact quantities identical."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    bad = 0
    print(f"{'workload':<18}{'metric':<16}{'A':>14}{'B':>14}{'B/A':>9}  verdict")
    for name, left in a["workloads"].items():
        right = b["workloads"].get(name)
        if right is None or "end_to_end" not in left or "end_to_end" not in right:
            print(f"{name:<18}missing or incomplete in one file")
            bad += 1
            continue
        for metric, bound in bounds.items():
            va, vb = left["end_to_end"][metric]["value"], right["end_to_end"][metric]["value"]
            ratio = vb / va
            ok = abs(ratio - 1.0) < bound
            bad += not ok
            print(f"{name:<18}{metric:<16}{va:>14.4f}{vb:>14.4f}{ratio:>9.3f}  "
                  f"{'ok' if ok else 'DIFFERS'} (bound {bound:.0%} of A)")
        same = left["exact"] == right["exact"]
        bad += not same
        print(f"{name:<18}{'exact':<16}{'digests, simulated counters, call counts':<37}  "
              f"{'identical' if same else 'DIFFER'}")
        for side in (left, right):
            bad += len(_failures(side))
    return 1 if bad else 0


# -- command line ----------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", help="measure one workload and print the driver's JSON line")
    parser.add_argument("--seconds", type=float, help="keep repeating until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: print the per-layer metrics instead")
    parser.add_argument("--workloads", help="comma-separated subset (default: all seven)")
    parser.add_argument("--reps", type=int, default=5, help="untraced repetitions per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, 2 repetitions: plumbing only")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite the pinned digests and counters (default seed only)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} is missing; nothing to measure", file=sys.stderr)
        return 2

    if args.workload:
        names = [args.workload]
    elif args.workloads:
        names = args.workloads.split(",")
    else:
        names = list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {list(workloads.WORKLOADS)}")
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error("--update-expected pins the default seed only")

    size = "smoke" if args.smoke else "full"
    run = Run(names, args.seed, size)
    started = time.monotonic()
    minimum = 2 if args.smoke else 3 if args.seconds is not None else args.reps
    while run.passes < minimum or (
        args.seconds is not None and time.monotonic() - started < args.seconds
    ):
        run.one_pass()
    if not args.workload or args.trace:
        run.traced_pass()

    expected_path = Path(args.expected)
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    if args.update_expected:
        broken = [name for name in names if "error" in run.reps[name][0]]
        if broken:
            print(f"bench: not re-pinning, {broken} did not finish", file=sys.stderr)
            return 1
        expected.setdefault(size, {}).update(
            {name: _exact(run.reps[name][0]) for name in names}
        )
        expected_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    summaries = {name: summarise(run, name, expected) for name in names}

    for name, summary in summaries.items():
        print_summary(name, summary)
    attempted = sum(len(summary["checks"]) for summary in summaries.values())
    failed = sum(len(_failures(summary)) for summary in summaries.values())
    document = {
        "host": _host_facts(),
        "seed": args.seed,
        "smoke": args.smoke,
        "size": size,
        "reps": run.passes,
        "elapsed_s": time.monotonic() - started,
        "workloads": summaries,
    }
    write_outputs(Path(args.out), run, document)
    print(f"\nchecks: {attempted} attempted, {failed} failed; "
          f"{run.passes} repetitions; seed {args.seed}; "
          f"cpu_count {document['host']['cpu_count']}; python {document['host']['python']}; "
          f"commit {document['host']['commit']}")

    if args.workload:
        section = "per_layer" if args.trace else "end_to_end"
        metrics = {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in summaries[args.workload].get(section, {}).items()
        }
        print(json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        ))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
