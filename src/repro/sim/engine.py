"""Discrete-event simulation engine with lightweight processes.

The engine is one ``heapq`` of ``(time, seq, fn, args)`` entries — ``seq``
grows with insertion, so same-instant events, zero-delay ones included,
dispatch in the order they were scheduled — plus a small cooperative-process
layer: a *process* is a Python generator that yields things to wait on —

* an ``int`` — wait that many picoseconds;
* a :class:`Future` — resume (with its value) when it completes;
* a list/tuple of futures — resume when *all* complete.

This mirrors how hardware blocks are usually described in simulators like
SimPy, but is hand-rolled so the repository has no dependencies beyond the
scientific stack.  Accelerator models (:mod:`repro.accel`) are written as
processes; the rest of the platform (links, IOMMU, multiplexer tree) is
event-driven.

There is one engine per platform, plus one *untraced* engine
(:func:`untraced_engine`) per :class:`~repro.fleet.admission.FleetService`
— the fleet serving loop runs on this same kernel, so same-instant
tie-breaking is decided in exactly one place — and per fast-path sandbox.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.telemetry.tracer import current_tracer, install_tracer, uninstall_tracer

#: Type of a simulation process body.
ProcessGenerator = Generator[Any, Any, Any]


class Future:
    """A single-assignment container for a value produced later in sim time.

    Futures are the hand-off point between event-driven components and
    generator processes.  ``set_result``/``set_exception`` may be called at
    most once; callbacks added after completion fire immediately.
    """

    __slots__ = ("engine", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise SimulationError("Future.result() called before completion")
        if self._exception is not None:
            raise self._exception
        return self._value

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise SimulationError("Future.exception() called before completion")
        return self._exception

    def set_result(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError("Future completed twice")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError("Future completed twice")
        self._done = True
        self._exception = exc
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)


class Process:
    """A running simulation process; also a future for its return value."""

    __slots__ = ("engine", "name", "generator", "completion", "_interrupted")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str) -> None:
        self.engine = engine
        self.name = name
        self.generator = generator
        self.completion = Future(engine)
        self._interrupted = False

    def interrupt(self) -> None:
        """Stop the process the next time it would be resumed.

        Used by the hypervisor to model a forcible accelerator reset: the
        process never observes the interrupt, it simply ceases to exist,
        like a circuit whose reset line was pulled.
        """
        self._interrupted = True

    # -- internal ----------------------------------------------------------

    def _step(self, send_value: Any = None, throw: Optional[BaseException] = None) -> None:
        if self._interrupted:
            if not self.completion.done():
                self.completion.set_result(None)
            self.generator.close()
            return
        try:
            if throw is not None:
                yielded = self.generator.throw(throw)
            else:
                yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self.completion.set_result(stop.value)
            return
        except BaseException as exc:  # propagate to whoever awaits the process
            self.completion.set_exception(exc)
            return
        # Nearly every yield is a plain future (a DMA in flight or already
        # back): _subscribe's two lines, here; the rest dispatches below.
        if yielded.__class__ is Future:
            if yielded._done:
                self.engine.call_after(0, self._resume_from_future, yielded)
            else:
                yielded._callbacks.append(self._resume_from_future)
        else:
            self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, int):
            if yielded < 0:
                self._step(throw=SimulationError(f"process {self.name} yielded negative delay"))
                return
            self.engine.call_after(yielded, self._step, None)
        elif isinstance(yielded, Future):
            self._subscribe(yielded)
        elif isinstance(yielded, Process):
            self._subscribe(yielded.completion)
        elif isinstance(yielded, (list, tuple)):
            self._wait_all(yielded)
        else:
            self._step(
                throw=SimulationError(
                    f"process {self.name} yielded unsupported value {yielded!r}"
                )
            )

    def _subscribe(self, future: Future) -> None:
        """Resume from ``future``, always via the event queue.

        An already-completed future must not re-enter the generator on the
        current stack frame — a process retiring a long chain of completed
        futures would otherwise recurse one level per retirement.
        """
        if future.done():
            self.engine.call_after(0, self._resume_from_future, future)
        else:
            future.add_done_callback(self._resume_from_future)

    def _wait_all(self, futures: Iterable[Any]) -> None:
        pending = []
        for item in futures:
            future = item.completion if isinstance(item, Process) else item
            if not isinstance(future, Future):
                self._step(throw=SimulationError("wait-all list may contain only futures"))
                return
            if not future.done():
                pending.append(future)
        if not pending:
            self.engine.call_after(0, self._step, [])
            return
        remaining = {"count": len(pending)}

        def on_done(_future: Future) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self._step([])

        for future in pending:
            future.add_done_callback(on_done)

    def _resume_from_future(self, future: Future) -> None:
        exc = future._exception
        if exc is not None:
            self._step(throw=exc)
        else:
            self._step(future._value)


def any_of(engine: "Engine", futures: Iterable[Future]) -> Future:
    """A future that resolves to the first of ``futures`` to complete.

    Losers are left untouched (they may still complete later); the result
    is the winning future itself, so callers can test identity.
    """
    combined = Future(engine)

    def on_done(winner: Future) -> None:
        if not combined.done():
            combined.set_result(winner)

    materialized = list(futures)
    if not materialized:
        raise SimulationError("any_of needs at least one future")
    for future in materialized:
        future.add_done_callback(on_done)
    return combined


class Engine:
    """The discrete-event core: one priority queue of timed callbacks."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[Tuple[int, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        # Tracing: captured once at construction.  ``trace`` is None unless
        # a tracer was installed (repro.telemetry) when the engine was
        # built, and every hook below guards on that — the dispatch loops
        # themselves carry no tracing code at all.
        tracer = current_tracer()
        self.trace = tracer.scope("sim") if tracer is not None else None
        self._trace_open: dict = {}
        if self.trace is not None:
            self._trace_run_tid = self.trace.thread("engine.run")
            tracer.on_finalize(self._trace_flush)

    # -- scheduling --------------------------------------------------------

    def call_at(self, time_ps: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps; current time is {self.now} ps"
            )
        seq = self._sequence + 1
        self._sequence = seq
        heapq.heappush(self._queue, (time_ps, seq, fn, args))

    def call_after(self, delay_ps: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay_ps`` picoseconds."""
        # Inlined (not delegated to call_at): this is called once or more
        # per simulated packet hop and the extra frame shows in profiles.
        if delay_ps < 0:
            self.call_at(self.now + delay_ps, fn, *args)  # in the past: raises
        seq = self._sequence + 1
        self._sequence = seq
        heapq.heappush(self._queue, (self.now + delay_ps, seq, fn, args))

    def future(self) -> Future:
        return Future(self)

    def completed_future(self, value: Any = None) -> Future:
        future = Future(self)
        future.set_result(value)
        return future

    def timer(self, delay_ps: int, value: Any = None) -> Future:
        """A future that completes after ``delay_ps``."""
        future = Future(self)
        self.call_after(delay_ps, future.set_result, value)
        return future

    # -- processes ----------------------------------------------------------

    def spawn(self, generator: ProcessGenerator, name: str = "proc") -> Process:
        """Start a generator process immediately (its first step runs now)."""
        process = Process(self, generator, name)
        if self.trace is not None:
            self._trace_spawn(process)
        self.call_after(0, process._step, None)
        return process

    # -- tracing (only reached with a tracer installed) ----------------------

    def _trace_spawn(self, process: Process) -> None:
        """Open a span for a process; closed when its completion fires."""
        scope = self.trace
        tid = scope.thread(process.name)
        self._trace_open[process] = (self.now, tid)

        def close(_future: Future) -> None:
            opened = self._trace_open.pop(process, None)
            if opened is not None:
                scope.complete(process.name, opened[0], self.now, tid=opened[1],
                               cat="engine")

        process.completion.add_done_callback(close)

    def _trace_flush(self) -> None:
        """Emit still-open process spans (jobs alive at end of trace)."""
        scope = self.trace
        for process, (start_ps, tid) in list(self._trace_open.items()):
            scope.complete(process.name, start_ps, self.now, tid=tid,
                           cat="engine", args={"open": True})
        self._trace_open.clear()

    # -- execution -----------------------------------------------------------

    def run(self, until_ps: Optional[int] = None) -> int:
        """Drain the event queue; returns the number of events processed.

        With ``until_ps``, stops before the first event past it and leaves
        ``now`` at it, so measurement windows are exact.
        """
        if self.trace is None:
            return self._drain(until_ps)
        start_ps = self.now
        try:
            return self._drain(until_ps)
        finally:
            self.trace.complete("engine.run", start_ps, self.now,
                                tid=self._trace_run_tid, cat="engine")

    def _drain(self, until_ps: Optional[int]) -> int:
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        while queue and (until_ps is None or queue[0][0] <= until_ps):
            event = pop(queue)
            self.now = event[0]
            event[2](*event[3])
            processed += 1
        # Nothing at or before until_ps remains: the window ends exactly there.
        if until_ps is not None and self.now < until_ps:
            self.now = until_ps
        return processed

    def run_until(self, future: Future, limit_ps: Optional[int] = None) -> Any:
        """Run until ``future`` completes; return its result.

        Raises :class:`SimulationError` if the queue drains or the time limit
        is reached first; completion is checked after each callback.
        """
        if self.trace is None:
            return self._drain_until(future, limit_ps)
        start_ps = self.now
        try:
            return self._drain_until(future, limit_ps)
        finally:
            self.trace.complete("engine.run_until", start_ps, self.now,
                                tid=self._trace_run_tid, cat="engine")

    def _drain_until(self, future: Future, limit_ps: Optional[int]) -> Any:
        queue = self._queue
        pop = heapq.heappop
        while not future._done:
            if not queue:
                raise SimulationError("event queue drained before future completed")
            if limit_ps is not None and queue[0][0] > limit_ps:
                raise SimulationError(f"future not completed by {limit_ps} ps")
            event = pop(queue)
            self.now = event[0]
            event[2](*event[3])
        return future.result()

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def peek_prefix(self, limit: int) -> List[Tuple[int, int, Callable[..., None], tuple]]:
        """The next ``limit`` pending ``(time, seq, fn, args)`` events in
        dispatch order; pops nothing."""
        return heapq.nsmallest(limit, self._queue)


def untraced_engine() -> Engine:
    """An engine the installed tracer never sees.

    Components take their trace scope from their engine, so an engine
    built with no tracer installed allocates no trace pid and emits no
    ``engine.run`` span — what keeps the fleet loop and the fast-path
    sandbox out of traces.  The tracer is put back before returning.
    """
    tracer = current_tracer()
    uninstall_tracer()
    try:
        return Engine()
    finally:
        if tracer is not None:
            install_tracer(tracer)
