"""Rate-limited transport primitives.

Every bandwidth-constrained element of the platform (a PCIe link direction,
the IOMMU's page walker, a multiplexer node) is modeled as a
:class:`ThroughputServer`: a FIFO pipe with a service rate and a fixed
pipeline latency.  Packets are *shaped*, not dropped — arrival order is
preserved, each packet occupies the server for ``size / rate``, and delivery
happens ``latency`` after service completes.

Fairness between competing accelerators does not come from these servers;
it comes from the fact that accelerators are closed-loop sources (bounded
outstanding requests), exactly like real CCI-P masters, plus the
round-robin arbitration of the multiplexer tree
(:class:`~repro.core.mux_tree.MuxNode` uses :class:`RoundRobinArbiter`).

These handlers run several times per simulated cache line, so they push
``(time, seq, fn, args)`` onto the engine's heap themselves: what
:meth:`Engine.call_at` does, less the frame and the range check (every
instant computed here is ``>= now``; latencies are validated non-negative).
Only :mod:`repro.sim` may; every other layer uses ``call_at``/``call_after``.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.packet import CACHE_LINE_BYTES, PacketKind


class ThroughputServer:
    """A FIFO resource with finite bandwidth and fixed latency.

    ``submit`` computes when the packet finishes *service* (back-to-back
    packets queue behind each other) and schedules ``deliver`` at
    ``service_end + latency_ps``.  The size used for shaping is provided by
    the caller so the same server can shape different directions differently
    (e.g. read responses carry 64 B payloads, write acks 16 B).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        bytes_per_ps: float,
        latency_ps: int = 0,
    ) -> None:
        if bytes_per_ps <= 0:
            raise ConfigurationError(f"{name}: bandwidth must be positive")
        if latency_ps < 0:
            raise ConfigurationError(f"{name}: latency must be non-negative")
        self.engine = engine
        self.name = name
        self.bytes_per_ps = bytes_per_ps
        self.latency_ps = latency_ps
        self._next_free_ps = 0
        self.total_bytes = 0
        self.total_packets = 0
        # Packet sizes come from a handful of wire formats (16 B acks, 80 B
        # read responses, ...); memoize the ceil-divide per distinct size.
        self._service_ps: dict = {}

    def set_rate(self, bytes_per_ps: float) -> None:
        """Change the service rate in place (modeled link degradation).

        Already-committed packets keep their service completion times
        (``_next_free_ps`` is untouched); only packets submitted after the
        change are shaped at the new rate — the same cut-over semantics a
        retrained physical link exhibits.  The per-size service-time memo
        is invalidated so both the reference path and the fast path (which
        reads :meth:`service_time_ps` live per burst, and keys its memoized
        plans on it) see the new rate.
        """
        if bytes_per_ps <= 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be positive")
        self.bytes_per_ps = bytes_per_ps
        self._service_ps = {}

    def service_time_ps(self, size_bytes: int) -> int:
        service = self._service_ps.get(size_bytes)
        if service is None:
            service = math.ceil(size_bytes / self.bytes_per_ps)
            self._service_ps[size_bytes] = service
        return service

    def submit(self, size_bytes: int, deliver: Callable[..., None], *args: Any) -> int:
        """Shape a packet of ``size_bytes``; call ``deliver(*args)`` on arrival.

        Returns the delivery time in picoseconds.
        """
        engine = self.engine
        now = engine.now
        start = self._next_free_ps
        if start < now:
            start = now
        service = self._service_ps.get(size_bytes)
        if service is None:
            service = self.service_time_ps(size_bytes)
        service_end = start + service
        self._next_free_ps = service_end
        self.total_bytes += size_bytes
        self.total_packets += 1
        deliver_at = service_end + self.latency_ps
        seq = engine._sequence + 1
        engine._sequence = seq
        heappush(engine._queue, (deliver_at, seq, deliver, args))
        return deliver_at

    def reserve_batch(self, size_bytes: int, packets: int, busy_through_ps: int) -> None:
        """Occupy the server for ``packets`` packets of ``size_bytes``, eventlessly.

        The caller (the simulator fast path) has already run
        :meth:`submit`'s shaping math over the packets' arrival instants —
        each starts service at ``max(arrival, next_free)`` — and knows both
        where every delivery feeds next and when the last service ends, so
        no event is scheduled: the server is simply busy through
        ``busy_through_ps``.
        """
        self._next_free_ps = busy_through_ps
        self.total_bytes += size_bytes * packets
        self.total_packets += packets

    @property
    def backlog_ps(self) -> int:
        """How far ahead of 'now' this server is already committed."""
        backlog = self._next_free_ps - self.engine.now
        return backlog if backlog > 0 else 0


class RoundRobinArbiter:
    """Cycle-accurate round-robin arbitration among N input queues.

    One grant is issued per ``period_ps`` (one clock cycle of the mux's
    domain).  The arbiter scans from the position after the last winner, so
    persistent requesters share grants equally — this is the mechanism
    behind the paper's fair real-time bandwidth sharing (§3, §6.7).

    An item is the tuple of arguments it was pushed with.  A grant, in this
    order: calls ``grant(input_index, *item)`` if given; schedules
    ``forward(*item)`` ``forward_latency_ps`` later if given (the pipeline
    stage behind a multiplexer node); holds the mux for the item's cost;
    and re-arms while anything is queued.  The cost is ``cost_cycles(*item)``
    cycles (default 1; fractional for rate-paced nodes).  A multiplexer node
    also passes ``line_hold_cycles`` — the ``(read, write)`` cost of a
    single-line packet, a constant of the node — and then ``item[0]`` must
    be a :class:`~repro.sim.packet.Packet`; ``cost_cycles`` is only asked
    about multi-line packets.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        n_inputs: int,
        period_ps: int,
        grant: Optional[Callable[..., None]] = None,
        cost_cycles: Optional[Callable[..., float]] = None,
        *,
        forward: Optional[Callable[..., None]] = None,
        forward_latency_ps: int = 0,
        line_hold_cycles: Optional[Tuple[float, float]] = None,
    ) -> None:
        if n_inputs <= 0:
            raise ConfigurationError(f"{name}: need at least one input")
        if period_ps <= 0:
            raise ConfigurationError(f"{name}: period must be positive")
        if forward_latency_ps < 0:
            raise ConfigurationError(f"{name}: latency must be non-negative")
        self.engine = engine
        self.name = name
        self.period_ps = period_ps
        self._n_inputs = n_inputs
        self._queues: List[Deque[tuple]] = [deque() for _ in range(n_inputs)]
        self._pending = 0
        self._grant = grant
        self._cost_cycles = cost_cycles
        self._forward = forward
        self._forward_latency_ps = forward_latency_ps
        self._line_hold_ps = (
            None
            if line_hold_cycles is None
            else tuple(self._hold_ps(cycles) for cycles in line_hold_cycles)
        )
        self._last_winner = n_inputs - 1
        self._next_grant_ps: Optional[int] = None
        self._busy_until_ps = 0
        self.grants_per_input = [0] * n_inputs

    def _hold_ps(self, cycles: float) -> int:
        # Multi-line packets hold the mux for one cycle per line; a
        # rate-paced node may ask for fractional cycles.
        return self.period_ps if cycles <= 1.0 else round(self.period_ps * cycles)

    def push(self, input_index: int, *item: Any) -> None:
        """Enqueue ``item`` on one input; arbitration starts if idle."""
        self._queues[input_index].append(item)
        self._pending += 1
        if self._next_grant_ps is None:
            # Grants happen on clock edges of the arbiter's domain, and
            # never before a multi-cycle grant in progress has released
            # the mux.
            engine = self.engine
            now = engine.now
            edge = self._busy_until_ps if self._busy_until_ps > now else now
            edge += (-edge) % self.period_ps
            self._next_grant_ps = edge
            seq = engine._sequence + 1
            engine._sequence = seq
            heappush(engine._queue, (edge, seq, self._do_grant, ()))

    def _do_grant(self) -> None:
        if not self._pending:
            self._next_grant_ps = None
            return  # all queues empty; go idle
        queues = self._queues
        n_inputs = self._n_inputs
        index = self._last_winner + 1
        if index == n_inputs:
            index = 0
        while not queues[index]:
            index += 1
            if index == n_inputs:
                index = 0
        item = queues[index].popleft()
        self._pending -= 1
        self._last_winner = index
        self.grants_per_input[index] += 1
        engine = self.engine
        now = engine.now
        # The order of the scheduling below (forward, then re-arm) fixes
        # the insertion order of same-instant events: keep it.
        if self._grant is not None:
            self._grant(index, *item)
        forward = self._forward
        if forward is not None:
            seq = engine._sequence + 1
            engine._sequence = seq
            heappush(engine._queue, (now + self._forward_latency_ps, seq, forward, item))
        hold = self._line_hold_ps
        if hold is not None and item[0].size <= CACHE_LINE_BYTES:
            busy = now + (
                hold[1] if item[0].kind is PacketKind.DMA_WRITE_REQ else hold[0]
            )
        else:
            cost = self._cost_cycles
            busy = now + self._hold_ps(cost(*item) if cost is not None else 1)
        self._busy_until_ps = busy
        # Read the count again: a grant callback may have pushed.
        if self._pending:
            self._next_grant_ps = busy
            seq = engine._sequence + 1
            engine._sequence = seq
            heappush(engine._queue, (busy, seq, self._do_grant, ()))
        else:
            self._next_grant_ps = None
