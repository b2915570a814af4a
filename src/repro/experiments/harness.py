"""Shared experiment plumbing: stack construction, launch, measurement.

Every table/figure module builds on the same three steps:

1. **build** an OPTIMUS stack (or a pass-through baseline),
2. **launch** benchmark jobs through the real guest stack (driver +
   userspace library + hypervisor), and
3. **measure** throughput or latency over a warm-up + window interval.

Working sets and window lengths default to scaled-down values so the
whole suite regenerates in minutes on a laptop; every experiment accepts
the paper-scale parameters for full runs (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.accel import make_job
from repro.accel.base import AcceleratorJob
from repro.accel.linkedlist import ADDR_MODE_PATTERN
from repro.accel.membench import MODE_READ
from repro.accel.streaming import REG_DST, REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.errors import ConfigurationError
from repro.hv import OptimusHypervisor, PassthroughHypervisor
from repro.hv.mdev import VirtualAccelerator
from repro.interconnect import VirtualChannel
from repro.kernels.graph import CsrGraph
from repro.mem import GB, MB
from repro.platform import Platform, PlatformMode, PlatformParams, build_platform
from repro.sim.clock import us

#: A very long stream length: jobs never finish inside a measurement window.
ENDLESS = 1 << 40


@dataclass
class LaunchedJob:
    """One running benchmark instance plus its measurement hooks."""

    name: str
    job: AcceleratorJob
    handle: object  # GuestAccelerator or NativeAccelerator
    vaccel: Optional[VirtualAccelerator] = None
    cache_line: int = 64  # progress granularity, from PlatformParams.cache_line

    def progress(self) -> int:
        return self.job.progress_units()

    def progress_bytes(self) -> int:
        """Progress in bytes moved, for absolute-bandwidth experiments."""
        job = self.job
        if hasattr(job, "bytes_done"):
            return job.bytes_done
        if hasattr(job, "bytes_in") and getattr(job, "bytes_in"):
            return job.bytes_in
        if hasattr(job, "bytes_out"):
            return job.bytes_out
        return job.progress_units() * self.cache_line


def _configure_benchmark(
    name: str,
    job: AcceleratorJob,
    alloc: Callable[[int], int],
    *,
    working_set: int,
    stream_len: int,
    graph: Optional[CsrGraph],
    seedling: int,
) -> Dict[int, int]:
    """Allocate buffers and produce the register file for one benchmark."""
    if name == "MB":
        base = alloc(working_set)
        return {
            REG_SRC: base,
            REG_LEN: working_set,
            REG_PARAM0: getattr(job, "mb_mode", MODE_READ),
            REG_PARAM1: 0,
        }
    if name == "LL":
        base = alloc(working_set)
        return {
            REG_SRC: base,
            REG_LEN: working_set,
            REG_PARAM0: ADDR_MODE_PATTERN,
            REG_PARAM1: getattr(job, "target_hops", None) or (1 << 40),
        }
    if name == "GRN":
        dst = alloc(working_set)
        return {REG_DST: dst, REG_LEN: stream_len}
    if name == "BTC":
        hdr = alloc(4096)
        out = alloc(4096)
        # 60 leading-zero bits: effectively never found -> runs endlessly.
        return {REG_SRC: hdr, REG_DST: out, REG_PARAM0: 60, REG_PARAM1: 0}
    if name == "SSSP":
        if graph is None:
            raise ConfigurationError("SSSP launch needs a graph")
        image = alloc(graph.serialized_bytes)
        dist = alloc(4 * graph.n_vertices + 64)
        return {
            REG_SRC: image,
            REG_DST: dist,
            REG_PARAM0: graph.n_vertices,
            REG_PARAM1: 0,
        }
    # Streaming benchmarks: src + dst + (endless) length.
    src = alloc(working_set)
    dst = alloc(working_set)
    return {REG_SRC: src, REG_DST: dst, REG_LEN: stream_len}


def _window_bytes_for(name: str, working_set: int, graph: Optional[CsrGraph]) -> int:
    if name == "SSSP" and graph is not None:
        return graph.serialized_bytes + 4 * graph.n_vertices + 8 * MB
    if name in ("MB", "LL"):
        return working_set + 4 * MB
    return 2 * working_set + 8 * MB


@runtime_checkable
class Stack(Protocol):
    """The mode-agnostic experiment surface.

    Both :class:`OptimusStack` and :class:`PassthroughStack` satisfy this
    protocol, so experiments written against it (and built through
    :func:`make_stack`) never branch on the virtualization mode — the
    single ``if optimus: ... else: ...`` pair lives in the factory.
    """

    params: PlatformParams
    platform: Platform
    jobs: List[LaunchedJob]

    def launch(
        self,
        name: str,
        *,
        physical_index: int = ...,
        working_set: int = ...,
        stream_len: int = ...,
        channel: VirtualChannel = ...,
        graph: Optional[CsrGraph] = ...,
        job_kwargs: Optional[dict] = ...,
        start: bool = ...,
    ) -> LaunchedJob: ...

    def run_for(self, duration_ps: int) -> None: ...


class OptimusStack:
    """An OPTIMUS platform + hypervisor with launch helpers."""

    def __init__(
        self,
        params: Optional[PlatformParams] = None,
        *,
        n_accelerators: int = 8,
        mux_topology: Optional[list] = None,
    ) -> None:
        self.params = params or PlatformParams()
        self.platform = build_platform(
            self.params, n_accelerators=n_accelerators, mux_topology=mux_topology
        )
        self.hypervisor = OptimusHypervisor(self.platform)
        self.jobs: List[LaunchedJob] = []

    def launch(
        self,
        name: str,
        *,
        physical_index: int = 0,
        working_set: int = 64 * MB,
        stream_len: int = ENDLESS,
        channel: VirtualChannel = VirtualChannel.VA,
        graph: Optional[CsrGraph] = None,
        job_kwargs: Optional[dict] = None,
        start: bool = True,
    ) -> LaunchedJob:
        kwargs = dict(job_kwargs or {})
        kwargs.setdefault("functional", False)
        if name == "SSSP":
            kwargs.setdefault("graph", graph)
        job = make_job(name, **kwargs)
        vm = self.hypervisor.create_vm(f"vm{len(self.jobs)}", mem_bytes=16 * GB)
        handle = self.hypervisor.connect(
            vm,
            job,
            physical_index=physical_index,
            window_bytes=_window_bytes_for(name, working_set, graph),
        )
        vaccel = handle.vaccel
        self.hypervisor.physical[physical_index].default_channel = channel
        registers = _configure_benchmark(
            name, job, handle.alloc_buffer,
            working_set=working_set, stream_len=stream_len,
            graph=graph, seedling=len(self.jobs),
        )
        for reg, value in registers.items():
            handle.mmio_write(reg, value)
        launched = LaunchedJob(
            name=name,
            job=job,
            handle=handle,
            vaccel=vaccel,
            cache_line=self.params.cache_line,
        )
        self.jobs.append(launched)
        if start:
            handle.start()
        return launched

    def run_for(self, duration_ps: int) -> None:
        self.platform.run_for(duration_ps)


class PassthroughStack:
    """The pass-through baseline with the same launch surface."""

    def __init__(
        self,
        params: Optional[PlatformParams] = None,
        *,
        virtualized: bool = True,
    ) -> None:
        self.params = params or PlatformParams()
        self.platform = build_platform(self.params, mode=PlatformMode.PASSTHROUGH)
        self.hypervisor = PassthroughHypervisor(self.platform, virtualized=virtualized)
        self.jobs: List[LaunchedJob] = []

    def launch(
        self,
        name: str,
        *,
        physical_index: int = 0,
        working_set: int = 64 * MB,
        stream_len: int = ENDLESS,
        channel: VirtualChannel = VirtualChannel.VA,
        graph: Optional[CsrGraph] = None,
        job_kwargs: Optional[dict] = None,
        start: bool = True,
    ) -> LaunchedJob:
        if physical_index != 0:
            raise ConfigurationError(
                "the pass-through baseline owns exactly one accelerator "
                f"(physical_index 0, got {physical_index})"
            )
        kwargs = dict(job_kwargs or {})
        kwargs.setdefault("functional", False)
        if name == "SSSP":
            kwargs.setdefault("graph", graph)
        job = make_job(name, **kwargs)
        handle = self.hypervisor.connect(
            window_bytes=_window_bytes_for(name, working_set, graph)
        )
        registers = _configure_benchmark(
            name, job, handle.alloc_buffer,
            working_set=working_set, stream_len=stream_len,
            graph=graph, seedling=0,
        )
        job.configure(registers)
        if start:
            self.hypervisor.start_job(job, channel=channel)
        launched = LaunchedJob(
            name=name, job=job, handle=handle, cache_line=self.params.cache_line
        )
        self.jobs.append(launched)
        return launched

    def run_for(self, duration_ps: int) -> None:
        self.platform.run_for(duration_ps)


def _make_analytic_stack(params, **kwargs):
    # Imported lazily: repro.analytic imports experiment modules that in
    # turn import this harness, so a top-level import would be circular.
    from repro.analytic.stack import AnalyticStack

    return AnalyticStack(params, **kwargs)


#: Mode name -> stack factory.  This registry is the single source of
#: truth for the mode list: :data:`STACK_MODES`, CLI ``--mode`` choices,
#: and the unknown-mode error message all derive from it, so adding a
#: backend here is the whole job.
_STACK_FACTORIES: Dict[str, Callable[..., "Stack"]] = {
    "optimus": lambda params, **kwargs: OptimusStack(params, **kwargs),
    "passthrough": lambda params, **kwargs: PassthroughStack(params, **kwargs),
    "analytic": _make_analytic_stack,
}

#: Stack modes understood by :func:`make_stack`, in registry order.
STACK_MODES = tuple(_STACK_FACTORIES)


def make_stack(
    mode: str = "optimus",
    params: Optional[PlatformParams] = None,
    **kwargs,
) -> Stack:
    """Build an experiment stack by mode name — the one mode branch.

    ``mode`` is one of :data:`STACK_MODES` (a
    :class:`~repro.platform.PlatformMode` is also accepted).  Keyword
    arguments are forwarded to the stack constructor: ``n_accelerators``
    and ``mux_topology`` for OPTIMUS, ``virtualized`` for pass-through,
    ``calibration`` for the analytic fast-forward backend.  Experiments
    built on this (fig4, fig6, chaos, ...) stay mode-agnostic.
    """
    if isinstance(mode, PlatformMode):
        mode = mode.value
    factory = _STACK_FACTORIES.get(mode)
    if factory is None:
        raise ConfigurationError(
            f"unknown stack mode {mode!r}; expected one of {STACK_MODES}"
        )
    return factory(params, **kwargs)


# -- parallel sweeps ---------------------------------------------------------------


def parallel_map(fn: Callable, items: Sequence, *, jobs: int = 1) -> List:
    """Map ``fn`` over ``items``: cached, cost-aware, optionally parallel.

    Experiment sweeps are grids of *independent* cells — each cell builds
    its own engine, platform, and RNGs from explicit seeds — so they can
    run in any process without changing results.  Results always come back
    in ``items`` order regardless of worker scheduling, which makes the
    merge deterministic and seed-stable: ``jobs=N`` produces the exact
    table ``jobs=1`` does.

    Two layers sit in front of the actual compute:

    * an installed :class:`~repro.experiments.cache.ExperimentCache`
      (``--cache-dir``) is consulted per cell — key = the worker's
      qualified name + the canonicalized item + the source-tree digest —
      and only the misses are computed (then stored);
    * with ``jobs > 1`` the first miss is *probed* inline and the rest go
      to the persistent worker pool only when the measured cell time
      clears the dispatch-overhead heuristic
      (:func:`repro.parallel.pool.dispatch_plan`) — small grids stay
      serial instead of paying pool latency for nothing.

    ``fn`` must be a module-level callable and every item picklable.
    """
    from repro.experiments.cache import current_cache

    items = list(items)
    results: List = [None] * len(items)
    pending = list(range(len(items)))

    cache = current_cache()
    keys: Optional[List[str]] = None
    if cache is not None:
        tag = f"{fn.__module__}.{getattr(fn, '__qualname__', fn.__name__)}"
        keys = [cache.key(tag, item) for item in items]
        misses = []
        for index in pending:
            hit, value = cache.load(keys[index])
            if hit:
                results[index] = value
            else:
                misses.append(index)
        pending = misses

    if pending:
        if jobs <= 1 or len(pending) <= 1:
            for index in pending:
                results[index] = fn(items[index])
        else:
            import time as _time

            from repro.parallel import pool

            probe_index, rest = pending[0], pending[1:]
            started = _time.perf_counter()
            results[probe_index] = fn(items[probe_index])
            probe_s = _time.perf_counter() - started
            if pool.dispatch_plan(probe_s, len(rest), jobs):
                values = pool.pool_map(
                    fn, [items[index] for index in rest], min(jobs, len(rest))
                )
                for index, value in zip(rest, values):
                    results[index] = value
            else:
                for index in rest:
                    results[index] = fn(items[index])

    if cache is not None and keys is not None:
        for index in pending:
            cache.store(keys[index], results[index])
    return results


# -- measurement -----------------------------------------------------------------


def measure_progress(
    platform_owner,
    jobs: Sequence[LaunchedJob],
    *,
    warmup_ps: int = us(60),
    window_ps: int = us(100),
    in_bytes: bool = True,
) -> List[float]:
    """Per-job progress rate over the window: GB/s (bytes) or units/us."""
    platform_owner.run_for(warmup_ps)
    base = [
        (job.progress_bytes() if in_bytes else job.progress()) for job in jobs
    ]
    engine = getattr(platform_owner, "platform", platform_owner).engine
    window_start_ps = engine.now
    platform_owner.run_for(window_ps)
    if engine.trace is not None:
        engine.trace.complete(
            "measure.window", window_start_ps, engine.now,
            tid=engine.trace.thread("measure"), cat="measure",
            args={"jobs": len(jobs)})
    rates = []
    for job, start in zip(jobs, base):
        current = job.progress_bytes() if in_bytes else job.progress()
        delta = current - start
        if in_bytes:
            rates.append(delta / window_ps * 1e3)  # bytes/ps -> GB/s
        else:
            rates.append(delta / (window_ps / 1e6))  # units per us
    return rates


# -- presentation ------------------------------------------------------------------


@dataclass
class ResultTable:
    """A printable experiment result: named columns, formatted rows."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ConfigurationError("row width does not match columns")
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form used by ``python -m repro run --json``."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def to_string(self) -> str:
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        table = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(self.columns))]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in table[1:]:
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.to_string() + "\n")

    def column(self, name: str) -> List[object]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]
