"""The shared process pool for experiment fan-out.

``--jobs`` sweeps (:func:`repro.experiments.harness.parallel_map`) run
their cells on one process-wide ``concurrent.futures.ProcessPoolExecutor``:

* :func:`shared_pool` — the lazily-built singleton; workers survive
  across sweeps (a fresh pool per sweep made small grids a net loss:
  fork cost dwarfed the cells), it grows on demand by being replaced,
  and it is torn down at interpreter exit.
* :func:`pool_map` — one sweep on it: results in item order, the first
  failing item (by submission order) re-raises coordinator-side with the
  worker's traceback chained as ``__cause__``, and a worker that *dies*
  ends the sweep with :class:`~repro.errors.WorkerDiedError`, not a hang.
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
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.errors import WorkerDiedError
from repro.platform.params import default_fast_path

if TYPE_CHECKING:
    # At run time it is imported where used: the sharded fleet executor
    # imports this module for fork_context and should not pay for it.
    from concurrent.futures import ProcessPoolExecutor

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


# -- the shared singleton -----------------------------------------------------

_SHARED: Optional[ProcessPoolExecutor] = None
_SHARED_PROCESSES = 0


def shared_pool(processes: int) -> ProcessPoolExecutor:
    """The process-wide pool, created lazily and grown on demand.

    Growing replaces the pool (workers are stateless); shrinking never
    happens — a sweep asking for 2 after one asked for 8 reuses the 8.
    """
    global _SHARED, _SHARED_PROCESSES
    from concurrent.futures import ProcessPoolExecutor

    if _SHARED is None or _SHARED_PROCESSES < processes:
        shutdown_shared_pool()
        _SHARED = ProcessPoolExecutor(processes, mp_context=fork_context())
        _SHARED_PROCESSES = processes
    return _SHARED


def shutdown_shared_pool() -> None:
    """Tear the singleton down (tests; also registered at exit)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown(cancel_futures=True)
        _SHARED = None


atexit.register(shutdown_shared_pool)


def _run_cell(fast_path: bool, fn: Callable, item):  # pragma: no cover - subprocess
    # The mode travels with the task: this worker may have been forked
    # under another one (--reference after a fast sweep).
    os.environ["REPRO_FAST_PATH"] = "1" if fast_path else "0"
    return fn(item)


def pool_map(fn: Callable, items: Sequence, processes: int) -> List:
    """Apply ``fn`` to every item on the shared pool; results in item order."""
    from concurrent.futures.process import BrokenProcessPool

    run = partial(_run_cell, default_fast_path(), fn)
    try:
        return list(shared_pool(processes).map(run, items))
    except BrokenProcessPool as exc:
        shutdown_shared_pool()  # a broken executor never recovers
        raise WorkerDiedError(
            f"a pool worker died while running the {fn.__module__}."
            f"{fn.__qualname__} sweep; its results are incomplete"
        ) from exc


def dispatch_plan(probe_s: float, remaining: int, jobs: int) -> bool:
    """Should the remaining cells go to the pool?  (The cost heuristic.)

    ``probe_s`` is the measured wall time of the first cell, run inline.
    Fan out only when the estimated remaining work both exceeds the
    dispatch overhead per cell and adds up to enough total work that the
    pool can win back its coordination cost.  Pure function — unit tested
    directly.
    """
    if jobs <= 1 or remaining < 1:
        return False
    if probe_s < DISPATCH_OVERHEAD_S:
        return False
    return probe_s * remaining >= MIN_PARALLEL_BUDGET_S
