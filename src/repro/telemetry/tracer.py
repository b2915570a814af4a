"""Structured tracing in simulated time (Chrome trace-event JSON).

The :class:`Tracer` collects *span* ("X"), *instant* ("i"), and *counter*
("C") events whose timestamps are **simulated picoseconds**, serialized in
the Chrome trace-event format so a capture loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  Each traced simulation
engine (one per platform; the engines a ``FleetService`` and a fast-path
sandbox run on are built by ``repro.sim.engine.untraced_engine`` and never
show up here) gets its own trace *process* (pid); related event
streams within it (the page walker, a link direction, a physical
accelerator's scheduler) get their own *threads* (tid), so sweeps that
build many platforms produce cleanly separated tracks.

Design constraints, in priority order:

* **Zero-cost when disabled.**  There is no global "is tracing on" check
  in any hot loop.  Components capture ``current_tracer()`` (usually via
  ``engine.trace``) once at construction; when no tracer is installed the
  captured value is ``None`` and every hook is a single attribute test at
  an already-low-frequency site (process spawn, IOTLB miss, context
  switch) — never in the per-event dispatch loop.

* **Determinism.**  Timestamps are simulated time only — no wall clock,
  no ids derived from object addresses.  :meth:`Tracer.to_json` sorts
  events by a total key (pid, ts, tid, serialized form) before dumping
  with ``sort_keys=True``, so the same simulation produces *byte
  identical* trace files regardless of incidental emission order.

* **Mode invariance.**  Hook sites throughout the stack are restricted to
  points proven identical between the simulator's fast path and the
  per-line reference path (see DESIGN.md §7): IOTLB misses/walks/evicts,
  process lifecycle, run-window boundaries, hypervisor control plane, and
  instrument-reset window flushes.  Per-packet and per-hit events are
  deliberately absent — they would differ between modes.

This module must not import anything from :mod:`repro.sim` (the engine
imports *us*).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

#: One simulated picosecond expressed in trace microseconds.
_PS_TO_US = 1e-6


class TraceScope:
    """One trace *process* (pid): a platform engine, a fleet loop, ...

    Scopes hand out stable thread ids for named lanes and emit events
    stamped with simulated-time timestamps.  All methods are cheap; the
    caller is responsible for the ``if scope is not None`` guard.
    """

    __slots__ = ("tracer", "pid", "_tids")

    def __init__(self, tracer: "Tracer", pid: int, label: str) -> None:
        self.tracer = tracer
        self.pid = pid
        self._tids: Dict[str, int] = {}
        self.set_process_name(label)

    # -- naming ------------------------------------------------------------

    def set_process_name(self, label: str) -> None:
        self.tracer._emit(
            {"ph": "M", "name": "process_name", "pid": self.pid, "tid": 0,
             "args": {"name": label}}
        )

    def thread(self, label: str) -> int:
        """A stable tid for ``label``; allocates (and names) it on first use."""
        tid = self._tids.get(label)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[label] = tid
            self.tracer._emit(
                {"ph": "M", "name": "thread_name", "pid": self.pid, "tid": tid,
                 "args": {"name": label}}
            )
        return tid

    # -- events ------------------------------------------------------------

    def instant(
        self,
        name: str,
        ts_ps: int,
        *,
        tid: int = 0,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "ph": "i", "name": name, "cat": cat, "s": "t",
            "pid": self.pid, "tid": tid, "ts": ts_ps * _PS_TO_US,
        }
        if args:
            event["args"] = args
        self.tracer._emit(event)

    def complete(
        self,
        name: str,
        start_ps: int,
        end_ps: int,
        *,
        tid: int = 0,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A span covering ``[start_ps, end_ps]`` of simulated time."""
        event: Dict[str, Any] = {
            "ph": "X", "name": name, "cat": cat,
            "pid": self.pid, "tid": tid,
            "ts": start_ps * _PS_TO_US, "dur": (end_ps - start_ps) * _PS_TO_US,
        }
        if args:
            event["args"] = args
        self.tracer._emit(event)

    def counter(
        self,
        name: str,
        ts_ps: int,
        values: Dict[str, float],
        *,
        tid: int = 0,
        cat: str = "",
    ) -> None:
        self.tracer._emit(
            {"ph": "C", "name": name, "cat": cat, "pid": self.pid, "tid": tid,
             "ts": ts_ps * _PS_TO_US, "args": values}
        )


class Tracer:
    """An in-memory trace: scopes, events, and deterministic serialization."""

    def __init__(self) -> None:
        self._events: List[Dict[str, Any]] = []
        self._next_pid = 0
        self._finalizers: List[Callable[[], None]] = []
        self._finalized = False

    # -- scopes and finalizers ---------------------------------------------

    def scope(self, label: str) -> TraceScope:
        """Allocate a new trace process.  Pids follow creation order."""
        self._next_pid += 1
        return TraceScope(self, self._next_pid, label)

    def reserve_pids(self, count: int) -> int:
        """Claim ``count`` consecutive pids without emitting any events.

        The sharded fleet executor reserves one pid block per node *in
        fleet order* before allocating its own scopes, so scopes created
        remotely (each shard worker traces into its own local
        :class:`Tracer`) can be renumbered into exactly the pids a serial
        run would have produced.  Returns the first reserved pid.
        """
        if count < 0:
            raise ValueError("cannot reserve a negative pid count")
        first = self._next_pid + 1
        self._next_pid += count
        return first

    def ingest(self, events: List[Dict[str, Any]], pid_map: Optional[Dict[int, int]] = None) -> None:
        """Merge externally captured events (a shard worker's trace).

        ``pid_map`` renumbers worker-local pids into this tracer's
        reserved pid space; events with unmapped pids are taken verbatim.
        Ordering does not matter — serialization sorts by a total key, so
        a merged trace is byte-identical to the equivalent serial capture.
        """
        if pid_map:
            for event in events:
                mapped = pid_map.get(event.get("pid"))
                if mapped is not None:
                    event = dict(event)
                    event["pid"] = mapped
                self._events.append(event)
        else:
            self._events.extend(events)

    def export_events(self) -> List[Dict[str, Any]]:
        """Finalize and hand the raw event list over (shard-worker side)."""
        self.finalize()
        return list(self._events)

    def on_finalize(self, callback: Callable[[], None]) -> None:
        """Register a flush hook (open spans, meter windows) for finalize."""
        self._finalizers.append(callback)

    def finalize(self) -> None:
        """Run every registered flush hook, once."""
        if self._finalized:
            return
        self._finalized = True
        finalizers, self._finalizers = self._finalizers, []
        for callback in finalizers:
            callback()

    # -- event sink --------------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        self._events.append(event)

    @property
    def event_count(self) -> int:
        return len(self._events)

    def span_categories(self) -> Set[str]:
        """Categories that contributed at least one complete ("X") span."""
        return {e["cat"] for e in self._events if e["ph"] == "X" and e.get("cat")}

    # -- serialization -----------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The trace as a Chrome trace-event object (``traceEvents`` array).

        Events are sorted by a total key so the output is a pure function
        of the *set* of emitted events — equal simulations serialize to
        byte-identical files even if hook ordering differs incidentally.
        """
        def key(event: Dict[str, Any]):
            return (
                event["pid"],
                0 if event["ph"] == "M" else 1,
                event.get("ts", 0.0),
                event.get("tid", 0),
                json.dumps(event, sort_keys=True),
            )

        return {
            "traceEvents": sorted(self._events, key=key),
            "displayTimeUnit": "ns",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True, separators=(",", ":"))

    def write(self, path) -> Path:
        """Finalize (if not already) and write the trace file."""
        self.finalize()
        target = Path(path)
        target.write_text(self.to_json() + "\n")
        return target


# -- the installed tracer (module-level, captured at construction time) -----

_ACTIVE: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (the common, zero-cost case)."""
    return _ACTIVE


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) a tracer; platforms built afterwards hook in."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def uninstall_tracer() -> None:
    global _ACTIVE
    _ACTIVE = None
