"""A persistent process-worker pool for experiment fan-out.

The first ``--jobs`` implementation spawned a fresh ``multiprocessing.Pool``
per sweep (and therefore per *call* of :func:`repro.experiments.harness
.parallel_map`), which made small grids a net loss: BENCH_simulator.json
recorded ``speedup_fast_jobs: 0.91`` because pool start-up and teardown
dwarfed the cells themselves.  This module replaces that with:

* :class:`WorkerPool` — long-lived worker processes fed over one shared
  task queue.  Workers survive across ``map`` calls, so a sweep of many
  small grids pays the fork cost once.
* :func:`shared_pool` — the module-level singleton the experiment harness
  uses; it grows on demand and is torn down at interpreter exit.
* a **cost heuristic** (:func:`dispatch_plan`): the harness probes the
  first cell inline and stays serial when the measured cell time is below
  the pool's per-cell dispatch overhead — fanning out only when it can
  actually win.  Results are identical either way; cells are independent
  and merged in submission order.

Fork start is preferred (cheap, and workers inherit the caller's loaded
modules); spawn is the non-POSIX fallback.  Either way a worker outlives
the call it was started for, so nothing ambient it inherited can be
trusted later: every task carries the caller's simulator mode with it.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.platform.params import default_fast_path

#: Measured cost of shipping one task through the persistent pool
#: (pickle + queue round trip), in seconds.  Cells cheaper than a few of
#: these are not worth dispatching.
DISPATCH_OVERHEAD_S = 0.005

#: Minimum total remaining work (estimated) worth waking the pool for.
MIN_PARALLEL_BUDGET_S = 0.05


def fork_context():
    """The multiprocessing context every repro parallel surface shares.

    Fork start is preferred; spawn is the non-POSIX fallback.  Used by
    both the experiment pool and the sharded fleet executor.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _worker_main(task_queue, result_queue) -> None:  # pragma: no cover - subprocess
    """One pool worker: loop over (seq, fast_path, fn, item) tasks until
    poisoned, each run in the simulator mode its caller resolved."""
    while True:
        task = task_queue.get()
        if task is None:
            return
        seq, fast_path, fn, item = task
        os.environ["REPRO_FAST_PATH"] = "1" if fast_path else "0"
        try:
            result_queue.put((seq, True, fn(item)))
        except BaseException as exc:  # surface errors to the coordinator
            result_queue.put(
                (seq, False, (repr(exc), traceback.format_exc()))
            )


class WorkerPool:
    """Persistent worker processes behind one shared task queue.

    ``map`` keeps the classic contract of :func:`parallel_map`: results
    come back in item order regardless of worker scheduling, and the
    first failing item (by submission order) re-raises coordinator-side.
    """

    def __init__(self, processes: int, *, context: Optional[str] = None) -> None:
        if processes < 1:
            raise ConfigurationError("a worker pool needs at least one process")
        if context is None:
            self._context = fork_context()
        else:
            self._context = multiprocessing.get_context(context)
        self.processes = processes
        self._tasks = self._context.SimpleQueue()
        self._results = self._context.SimpleQueue()
        self._workers = [
            self._context.Process(
                target=_worker_main,
                args=(self._tasks, self._results),
                daemon=True,
                name=f"repro-pool-{i}",
            )
            for i in range(processes)
        ]
        for worker in self._workers:
            worker.start()
        self._closed = False

    # -- mapping ------------------------------------------------------------

    def map(self, fn: Callable, items: Sequence) -> List:
        """Apply ``fn`` to every item across the pool; results in order."""
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        items = list(items)
        # The mode travels with the task: these workers may have been
        # forked under another one (--reference after a fast sweep).
        fast_path = default_fast_path()
        for seq, item in enumerate(items):
            self._tasks.put((seq, fast_path, fn, item))
        slots: List = [None] * len(items)
        failures: List[Tuple[int, Tuple[str, str]]] = []
        for _ in range(len(items)):
            seq, ok, payload = self._results.get()
            if ok:
                slots[seq] = payload
            else:
                failures.append((seq, payload))
        if failures:
            failures.sort()
            shown, formatted = failures[0][1]
            raise RuntimeError(
                f"pool worker failed on item {failures[0][0]}: {shown}\n{formatted}"
            )
        return slots

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Poison every worker and join; idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- the shared singleton -----------------------------------------------------

_SHARED: Optional[WorkerPool] = None


def shared_pool(processes: int) -> WorkerPool:
    """The process-wide pool, created lazily and grown on demand.

    Growing replaces the pool (workers are stateless); shrinking never
    happens — a sweep asking for 2 after one asked for 8 reuses the 8.
    """
    global _SHARED
    if _SHARED is None or _SHARED._closed:
        _SHARED = WorkerPool(processes)
    elif _SHARED.processes < processes:
        _SHARED.close()
        _SHARED = WorkerPool(processes)
    return _SHARED


def shutdown_shared_pool() -> None:
    """Tear the singleton down (tests; also registered at exit)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.close()
        _SHARED = None


atexit.register(shutdown_shared_pool)


def dispatch_plan(probe_s: float, remaining: int, jobs: int) -> bool:
    """Should the remaining cells go to the pool?  (The cost heuristic.)

    ``probe_s`` is the measured wall time of the first cell, run inline.
    Fan out only when the estimated remaining work both exceeds the
    dispatch overhead per cell and adds up to enough total work that the
    pool can win back its coordination cost.  Pure function — unit tested
    directly; override via ``REPRO_FORCE_JOBS=1`` for benchmarking.
    """
    if os.environ.get("REPRO_FORCE_JOBS") == "1":
        return True
    if jobs <= 1 or remaining < 1:
        return False
    if probe_s < DISPATCH_OVERHEAD_S:
        return False
    return probe_s * remaining >= MIN_PARALLEL_BUDGET_S
