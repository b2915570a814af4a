"""One repetition of one workload, in a process of its own.

``bench.py`` starts this file once per (workload, input, repetition) with
``PYTHONHASHSEED=0``.  The phases are ``import`` -> ``setup`` (build the
stack or cluster, simulated warm-up, trace synthesis, shard fork) ->
``calibrate`` -> ``timed`` (exactly one public call) -> ``calibrate`` ->
``verify`` -> ``teardown``.  Spans, timings and counters are kept in
memory and written once, as one JSON document on the last line of
standard output.

Host speed.  This VM's speed moves by up to 2x over minutes and by +-25%
within seconds (measured: the same fleet replay took 0.74-1.46 s within
two minutes, a pure-Python spin loop 0.135-0.25 s, process CPU time
moving with wall clock, steal time under 2%).  A fixed pure-Python kernel
therefore runs immediately before and after the timed call, and ``speed``
= nominal kernel time / measured kernel time.  The harness reports times
multiplied by ``speed`` ("seconds at nominal host speed") next to the raw
readings.
"""

from __future__ import annotations

import argparse
import cProfile
import heapq
import importlib
import json
import multiprocessing
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: What the calibration kernel takes on this host in its usual state: a
#: scale constant, nothing depends on it being right for another machine.
CAL_NOMINAL_S = 0.200


class _Cell:
    __slots__ = ("count", "kind")

    def __init__(self, kind: int) -> None:
        self.count = 0
        self.kind = kind

    def fire(self) -> None:
        self.count += 1


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes, in two halves.

    The first half is cache-resident and mixes what the workloads do most:
    pop and push a small event heap and call a bound method (the
    simulator), filter a short list of objects and sum over it (fleet
    placement).  The second half fills and drains a 60 000-entry heap, a
    working set of a few megabytes like the simulator's object graph.
    Measured over 280 repetitions, neither half alone follows all seven
    workloads; their sum brought the run-to-run spread of every workload
    from 12-30% down to 3-14%.
    """
    cells = [_Cell(index % 6) for index in range(64)]
    small = cells[:16]
    heap = [((index * 7919) % 10007, index, small[index & 15]) for index in range(64)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for index in range(64, 40_000):
        now, _index, cell = pop(heap)
        cell.fire()
        same = [other for other in small if other.kind == cell.kind]
        push(heap, (now + sum(other.kind for other in same) + index % 97, index, cell))
    heap = []
    for index in range(60_000):
        push(heap, ((index * 7919) % 10007, index, cells[index & 63]))
    while heap:
        _now, _index, cell = pop(heap)
        cell.fire()
    return time.perf_counter() - start


class Spans:
    """Well-nested spans of one repetition, on the system-wide monotonic clock."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []
        self._open: List[str] = []

    @contextmanager
    def __call__(self, name: str):
        row = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic(),
        }
        self.rows.append(row)
        self._open.append(name)
        try:
            yield
        finally:
            self._open.pop()
            row["end"] = time.monotonic()


def _children_cpu_seconds() -> float:
    """User + system CPU so far of this process's live worker processes.

    ``RUSAGE_CHILDREN`` only counts children already waited for, and the
    shard workers live until teardown, so read them from ``/proc``.
    """
    total = 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            fields = Path(f"/proc/{child.pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # gone between the listing and the read
        total += (int(fields[11]) + int(fields[12])) / ticks  # utime + stime
    return total


def run(workload: str, seed: int, size: str, traced: bool, spawned: float) -> Dict[str, object]:
    spans = Spans()
    with spans("rep"):
        with spans("import"):
            sys.path.insert(0, str(ROOT / "src"))
            sys.path.insert(0, str(HERE))
            import layers
            import workloads

            for module in workloads.IMPORTS[workload]:
                importlib.import_module(module)
        with spans("setup"):
            prepared = workloads.WORKLOADS[workload](
                seed, workloads.SIZES[size][workload], spans
            )
        try:
            with spans("calibrate"):
                cal_before = calibrate()
            profiler: Optional[cProfile.Profile] = cProfile.Profile() if traced else None
            with spans("timed"):
                own_start, children_start = time.process_time(), _children_cpu_seconds()
                timed_start = time.monotonic()
                if profiler is not None:
                    profiler.enable()
                result = prepared.timed()
                if profiler is not None:
                    profiler.disable()
                wall_s = time.monotonic() - timed_start
                cpu_children_s = _children_cpu_seconds() - children_start
                cpu_s = time.process_time() - own_start + cpu_children_s
            with spans("calibrate_after"):
                cal_after = calibrate()
            with spans("verify"):
                outcome = prepared.finish(result)
                digest = workloads.digest_of(outcome.result)
        finally:
            with spans("teardown"):
                close_start = time.monotonic()
                prepared.close()
                close_s = time.monotonic() - close_start
    document: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "cpu_children_s": cpu_children_s,
        # Process start to the start of the timed call, less the kernel.
        "setup_s": timed_start - spawned - cal_before,
        "close_s": close_s,
        "speed": CAL_NOMINAL_S / ((cal_before + cal_after) / 2),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work": outcome.work,
        "sim_ps": outcome.sim_ps,
        "digest": digest,
        "counters": outcome.counters,
        "host_times": outcome.host_times,
        "spans": spans.rows,
    }
    if profiler is not None:
        document["layers"], document["top"] = layers.attribute(profiler.getstats())
    return document


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    args = parser.parse_args()
    document = run(args.workload, args.seed, args.size, bool(args.traced), args.spawned)
    print(json.dumps(document))


if __name__ == "__main__":
    main()
