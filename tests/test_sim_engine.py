"""Unit tests for the discrete-event engine, futures, and processes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim.engine import untraced_engine
from repro.telemetry.tracer import current_tracer, install_tracer, uninstall_tracer


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.call_after(300, order.append, "c")
    engine.call_after(100, order.append, "a")
    engine.call_after(200, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 300


def test_same_time_events_fire_in_schedule_order():
    engine = Engine()
    order = []
    for tag in ("first", "second", "third"):
        engine.call_after(50, order.append, tag)
    engine.run()
    assert order == ["first", "second", "third"]


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.call_after(100, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.call_at(50, lambda: None)


def test_run_until_time_limit_stops_early_and_advances_clock():
    engine = Engine()
    fired = []
    engine.call_after(1000, fired.append, True)
    engine.run(until_ps=500)
    assert not fired
    assert engine.now == 500
    engine.run()
    assert fired


def test_future_resolves_and_callbacks_fire():
    engine = Engine()
    future = engine.future()
    seen = []
    future.add_done_callback(lambda f: seen.append(f.result()))
    engine.call_after(10, future.set_result, 42)
    engine.run()
    assert seen == [42]
    assert future.result() == 42


def test_future_cannot_complete_twice():
    engine = Engine()
    future = engine.future()
    future.set_result(1)
    with pytest.raises(SimulationError):
        future.set_result(2)


def test_callback_added_after_completion_fires_immediately():
    engine = Engine()
    future = engine.completed_future("done")
    seen = []
    future.add_done_callback(lambda f: seen.append(f.result()))
    assert seen == ["done"]


def test_timer_future():
    engine = Engine()
    future = engine.timer(500, "tick")
    assert engine.run_until(future) == "tick"
    assert engine.now == 500


def test_process_yield_delay():
    engine = Engine()
    marks = []

    def body():
        marks.append(engine.now)
        yield 100
        marks.append(engine.now)
        yield 250
        marks.append(engine.now)
        return "finished"

    process = engine.spawn(body())
    result = engine.run_until(process.completion)
    assert result == "finished"
    assert marks == [0, 100, 350]


def test_process_waits_on_future_and_receives_value():
    engine = Engine()
    future = engine.timer(75, "payload")

    def body():
        value = yield future
        return value

    process = engine.spawn(body())
    assert engine.run_until(process.completion) == "payload"
    assert engine.now == 75


def test_process_waits_on_all_of_a_list():
    engine = Engine()
    futures = [engine.timer(t) for t in (10, 500, 200)]

    def body():
        yield list(futures)
        return engine.now

    process = engine.spawn(body())
    assert engine.run_until(process.completion) == 500


def test_process_exception_propagates_to_completion():
    engine = Engine()

    def body():
        yield 10
        raise ValueError("boom")

    process = engine.spawn(body())
    engine.run()
    assert process.completion.done()
    with pytest.raises(ValueError):
        process.completion.result()


def test_process_waiting_on_failing_future_sees_exception():
    engine = Engine()
    inner = engine.future()
    engine.call_after(20, inner.set_exception, RuntimeError("inner"))

    def body():
        try:
            yield inner
        except RuntimeError as exc:
            return f"caught {exc}"
        return "not caught"

    process = engine.spawn(body())
    assert engine.run_until(process.completion) == "caught inner"


def test_process_interrupt_stops_silently():
    engine = Engine()
    marks = []

    def body():
        marks.append("started")
        yield 1000
        marks.append("should not happen")

    process = engine.spawn(body())
    engine.run(until_ps=10)
    process.interrupt()
    engine.run()
    assert marks == ["started"]
    assert process.completion.done()


def test_process_waiting_on_another_process():
    engine = Engine()

    def child():
        yield 40
        return 7

    def parent():
        child_proc = engine.spawn(child(), name="child")
        value = yield child_proc
        return value * 2

    process = engine.spawn(parent())
    assert engine.run_until(process.completion) == 14


def test_negative_delay_is_an_error():
    engine = Engine()

    def body():
        yield -5

    process = engine.spawn(body())
    engine.run()
    with pytest.raises(SimulationError):
        process.completion.result()


# -- zero-delay and same-instant ordering ------------------------------------
# "Lane(s)" in the names below is the two-queue kernel these were written
# for (a FIFO beside the heap); what they assert is (time, seq) order, and
# they are kept unedited on one heap.


def test_zero_delay_events_fire_fifo_before_later_times():
    engine = Engine()
    order = []
    engine.call_after(100, order.append, "timed")
    engine.call_after(0, order.append, "imm1")
    engine.call_after(0, order.append, "imm2")
    engine.run()
    assert order == ["imm1", "imm2", "timed"]
    assert engine.now == 100


def test_immediate_lane_merges_with_heap_by_schedule_order():
    # Two events land at T=50: one scheduled ahead of time and one scheduled
    # *at* T by the first callback (zero delay).  The first was scheduled
    # earlier, so it must fire before the zero-delay entry.
    engine = Engine()
    order = []

    def at_t():
        order.append("first@T")
        engine.call_after(0, order.append, "imm@T")

    engine.call_after(50, at_t)
    engine.call_after(50, order.append, "heap@T")
    engine.run()
    assert order == ["first@T", "heap@T", "imm@T"]


def test_call_at_current_time_uses_immediate_lane_order():
    engine = Engine()
    order = []

    def at_t():
        engine.call_at(engine.now, order.append, "at-now")
        engine.call_after(0, order.append, "after-zero")

    engine.call_after(25, at_t)
    engine.run()
    assert order == ["at-now", "after-zero"]


def test_until_ps_does_not_block_immediate_events_at_the_horizon():
    # A callback firing exactly at until_ps spawns zero-delay work; that
    # work still runs even though the next *timed* event is past the limit.
    engine = Engine()
    order = []

    def at_horizon():
        engine.call_after(0, order.append, "imm")

    engine.call_after(100, at_horizon)
    engine.call_after(200, order.append, "late")
    engine.run(until_ps=100)
    assert order == ["imm"]
    assert engine.now == 100
    assert engine.pending_events == 1


def test_pending_events_counts_both_lanes():
    engine = Engine()
    engine.call_after(0, lambda: None)
    engine.call_after(0, lambda: None)
    engine.call_after(5, lambda: None)
    assert engine.pending_events == 3
    engine.run()
    assert engine.pending_events == 0


def test_peek_prefix_is_the_dispatch_order_over_both_lanes():
    # The fleet's speculation window reads the engine through this: it must
    # list what run() will dispatch next, in that order, including events
    # scheduled *at now*.
    engine = Engine()
    fired = []
    seqs = itertools.count(1)  # the k-th scheduling call is given seq k

    def schedule(delay_ps):
        engine.call_after(
            delay_ps, lambda seq: fired.append((engine.now, seq)), next(seqs)
        )

    peeks = []

    def at_t():
        schedule(0)  # seq 4: at T
        schedule(25)  # seq 5: T+25
        schedule(0)  # seq 6: at T
        pending = engine.pending_events
        peeks.append(engine.peek_prefix(2))
        peeks.append(engine.peek_prefix(99))  # more than pending: everything
        assert engine.pending_events == pending == 5  # popped nothing

    engine.call_after(50, at_t)
    next(seqs)  # seq 1 was at_t itself
    schedule(50)  # seq 2: pending for T before at_t runs
    schedule(60)  # seq 3
    engine.run()

    first_two, everything = peeks
    assert fired == [(50, 2), (50, 4), (50, 6), (60, 3), (75, 5)]
    assert [(time_ps, seq) for time_ps, seq, _fn, _args in everything] == fired
    assert all(args == (seq,) for _time, seq, _fn, args in everything)
    assert first_two == everything[:2]
    assert engine.peek_prefix(3) == []


# A random program against a reference that sorts.  An event spec is
# ``(delay, use_call_at, children)``: fire ``delay`` ps after it is scheduled
# (zero included), scheduled with call_at or call_after, and schedule its
# children from inside its own handler.  A phase is ``(step, specs)``:
# schedule ``specs`` from outside, then ``run(until_ps=now + step)`` — or
# ``run()`` when ``step`` is None.  Both sides return the dispatch order as
# ``(time, seq)`` (the k-th scheduling call is seq k) and, per pause, what an
# observer can see: the clock, run()'s return value, pending_events, the
# first PEEK pending events, and how many events had been scheduled by then.

PEEK = 4
_DELAYS = st.sampled_from([0, 0, 0, 1, 2, 7])
_SPECS = st.recursive(
    st.tuples(_DELAYS, st.booleans(), st.just(())),
    lambda children: st.tuples(
        _DELAYS, st.booleans(), st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=10,
)
_PHASES = st.lists(
    st.tuples(st.integers(0, 9), st.lists(_SPECS, max_size=4)), max_size=5
)


def _reference_run(phases):
    pending, fired, pauses, now, seq = [], [], [], 0, 0

    def schedule(specs):
        nonlocal seq
        for delay, _use_call_at, children in specs:
            seq += 1
            pending.append((now + delay, seq, children))

    for step, specs in phases:
        schedule(specs)
        before, until = len(fired), None if step is None else now + step
        while pending and (until is None or min(pending)[0] <= until):
            pending.sort()
            now, fired_seq, children = pending.pop(0)
            fired.append((now, fired_seq))
            schedule(children)
        if until is not None:
            now = until
        peek = [event[:2] for event in sorted(pending)[:PEEK]]
        pauses.append((now, len(fired) - before, len(pending), peek, seq))
    return fired, pauses


def _engine_run(phases):
    engine, fired, pauses, scheduled = Engine(), [], [], 0

    def schedule(specs):
        nonlocal scheduled
        for delay, use_call_at, children in specs:
            scheduled += 1
            if use_call_at:
                engine.call_at(engine.now + delay, fire, scheduled, children)
            else:
                engine.call_after(delay, fire, scheduled, children)

    def fire(seq, children):
        fired.append((engine.now, seq))
        schedule(children)

    for step, specs in phases:
        schedule(specs)
        dispatched = engine.run(None if step is None else engine.now + step)
        peek = engine.peek_prefix(PEEK)
        assert all(args[0] == seq for _time, seq, _fn, args in peek)
        pauses.append(
            (
                engine.now,
                dispatched,
                engine.pending_events,
                [event[:2] for event in peek],
                scheduled,
            )
        )
    return fired, pauses


@given(phases=_PHASES)
@settings(max_examples=300, deadline=None)
def test_any_program_dispatches_in_time_then_schedule_order(phases):
    phases = phases + [(None, [])]  # drain whatever the horizons left
    fired, pauses = _engine_run(phases)
    assert (fired, pauses) == _reference_run(phases)
    # A peek is a prediction: of the events pending at the pause, the first
    # PEEK are the next dispatched, in that order (later arrivals may
    # interleave, so look only at seqs that existed then).
    done = 0
    for _now, dispatched, _pending, peek, scheduled in pauses:
        done += dispatched
        then_pending = [event for event in fired[done:] if event[1] <= scheduled]
        assert then_pending[: len(peek)] == peek


def test_untraced_engine_is_invisible_to_an_installed_tracer():
    tracer = install_tracer()
    try:
        events_before = tracer.event_count
        engine = untraced_engine()
        assert engine.trace is None
        assert current_tracer() is tracer  # put back, same object

        def body():
            yield 10

        engine.spawn(body(), "unseen")
        engine.run()
        assert tracer.event_count == events_before  # no pid, no span
        assert Engine().trace is not None  # ordinary engines still hook in
    finally:
        uninstall_tracer()


def test_untraced_engine_with_no_tracer_installed_installs_none():
    assert current_tracer() is None
    assert untraced_engine().trace is None
    assert current_tracer() is None


def test_run_until_drains_zero_delay_chains_directly():
    engine = Engine()
    future = engine.future()
    hops = {"count": 0}

    def chain():
        hops["count"] += 1
        if hops["count"] < 1000:
            engine.call_after(0, chain)
        else:
            future.set_result(hops["count"])

    engine.call_after(10, chain)
    assert engine.run_until(future) == 1000
    assert engine.now == 10


def test_run_until_time_limit_raises():
    engine = Engine()
    future = engine.timer(500)
    with pytest.raises(SimulationError):
        engine.run_until(future, limit_ps=300)


def test_run_until_drained_queue_raises():
    engine = Engine()
    future = engine.future()
    engine.call_after(0, lambda: None)
    with pytest.raises(SimulationError):
        engine.run_until(future)
