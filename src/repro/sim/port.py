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
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Engine


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
        reads :meth:`service_time_ps` live per burst) see the new rate.
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
        start = self.engine.now
        if self._next_free_ps > start:
            start = self._next_free_ps
        service = self._service_ps.get(size_bytes)
        if service is None:
            service = math.ceil(size_bytes / self.bytes_per_ps)
            self._service_ps[size_bytes] = service
        service_end = start + service
        self._next_free_ps = service_end
        self.total_bytes += size_bytes
        self.total_packets += 1
        deliver_at = service_end + self.latency_ps
        self.engine.call_at(deliver_at, deliver, *args)
        return deliver_at

    def reserve(self, size_bytes: int, at_ps: int) -> int:
        """Occupy the server for a packet arriving at ``at_ps``, eventlessly.

        Identical shaping math to :meth:`submit` — the packet starts service
        at ``max(at_ps, next_free)`` and the server stays busy through its
        service time — but no delivery event is scheduled: the caller (the
        simulator fast path) has already computed where the delivery feeds
        next.  Returns the delivery time (``service_end + latency``).
        """
        start = at_ps if at_ps > self._next_free_ps else self._next_free_ps
        service_end = start + self.service_time_ps(size_bytes)
        self._next_free_ps = service_end
        self.total_bytes += size_bytes
        self.total_packets += 1
        return service_end + self.latency_ps

    def backlog_at(self, at_ps: int) -> int:
        """Committed-but-unserved time as it will stand at ``at_ps``."""
        backlog = self._next_free_ps - at_ps
        return backlog if backlog > 0 else 0

    @property
    def backlog_ps(self) -> int:
        """How far ahead of 'now' this server is already committed."""
        backlog = self._next_free_ps - self.engine.now
        return backlog if backlog > 0 else 0


class LatencyPipe:
    """An unbounded-bandwidth, fixed-latency hop (e.g. an auditor stage)."""

    def __init__(self, engine: Engine, name: str, latency_ps: int) -> None:
        if latency_ps < 0:
            raise ConfigurationError(f"{name}: latency must be non-negative")
        self.engine = engine
        self.name = name
        self.latency_ps = latency_ps

    def submit(self, deliver: Callable[..., None], *args: Any) -> int:
        deliver_at = self.engine.now + self.latency_ps
        self.engine.call_at(deliver_at, deliver, *args)
        return deliver_at


class RoundRobinArbiter:
    """Cycle-accurate round-robin arbitration among N input queues.

    One grant is issued per ``period_ps`` (one clock cycle of the mux's
    domain).  The arbiter scans from the position after the last winner, so
    persistent requesters share grants equally — this is the mechanism
    behind the paper's fair real-time bandwidth sharing (§3, §6.7).
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        n_inputs: int,
        period_ps: int,
        grant: Callable[[int, Any], None],
        cost_cycles: Optional[Callable[[Any], int]] = None,
    ) -> None:
        if n_inputs <= 0:
            raise ConfigurationError(f"{name}: need at least one input")
        if period_ps <= 0:
            raise ConfigurationError(f"{name}: period must be positive")
        self.engine = engine
        self.name = name
        self.period_ps = period_ps
        self._queues: List[Deque[Any]] = [deque() for _ in range(n_inputs)]
        self._grant = grant
        self._cost_cycles = cost_cycles
        self._last_winner = n_inputs - 1
        self._next_grant_ps: Optional[int] = None
        self._busy_until_ps = 0
        self.grants_per_input = [0] * n_inputs

    def push(self, input_index: int, item: Any) -> None:
        """Enqueue ``item`` on one input; arbitration starts if idle."""
        self._queues[input_index].append(item)
        self._schedule()

    def _schedule(self) -> None:
        if self._next_grant_ps is not None:
            return
        # Grants happen on clock edges of the arbiter's domain, and never
        # before a multi-cycle grant in progress has released the mux.
        now = self.engine.now
        if self._busy_until_ps > now:
            now = self._busy_until_ps
        edge = now + (-now) % self.period_ps
        self._next_grant_ps = edge
        self.engine.call_at(edge, self._do_grant)

    def _do_grant(self) -> None:
        self._next_grant_ps = None
        queues = self._queues
        n = len(queues)
        last = self._last_winner
        granted = None
        for offset in range(1, n + 1):
            index = (last + offset) % n
            queue = queues[index]
            if queue:
                item = queue.popleft()
                self._last_winner = index
                self.grants_per_input[index] += 1
                granted = item
                self._grant(index, item)
                break
        if granted is None:
            return  # all queues empty; go idle
        # Multi-line packets hold the mux for one cycle per line (the
        # cost function may return fractional cycles for rate-paced nodes).
        cycles = self._cost_cycles(granted) if self._cost_cycles else 1
        if cycles <= 1.0:
            busy = self.engine.now + self.period_ps
        else:
            busy = self.engine.now + round(self.period_ps * cycles)
        self._busy_until_ps = busy
        if any(queues):
            self._next_grant_ps = busy
            self.engine.call_at(busy, self._do_grant)
