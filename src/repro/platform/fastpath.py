"""The simulator fast path: timing-preserving DMA burst coalescing.

A streaming accelerator that reads N contiguous cache lines issues, on the
reference path, N request packets — each one a chain of ~8 global
simulation events (issue throttle, shell hop, translation, link
serialization, DRAM access, return link, completion), each carrying
closures, futures, and per-component dispatch.  For large sweeps those
events dominate wall-clock time while carrying no information: every
per-line time is a pure function of state known when the burst arrives.

:class:`FastPath` exploits that, in three steps per burst (one
:class:`~repro.sim.packet.Packet` with ``coalesced=True`` covering N lines):

1. **Key.**  Everything the plan depends on — each server's free time, the
   issue throttle, the window's pending completions, the round-robin
   cursor, and the service/latency/interval constants — is read as offsets
   from ``now``, with anything already in the past clamped to 0
   (:meth:`FastPath._relative_state`).
2. **Plan, on a miss.**  :meth:`FastPath._plan` runs the identical event
   semantics on a **private local heap** — plain tuples, no closures, no
   futures, nothing touching the global engine — and the result is kept
   as a :class:`BurstPlan` of offsets in a small per-``FastPath`` memo
   (:data:`PLAN_MEMO_BOUND`).  The plan only ever adds to and compares
   instants that are all ``>= now``, so it shifts rigidly with ``now`` and
   cannot tell a stale free time from one equal to ``now``: an equal key
   *is* an equal plan.  A steady stream revisits a handful of keys, so
   ``_plan`` runs a few times per run and is otherwise the memo's oracle.
3. **Commit, in O(links).**  All shared-resource state (server occupancy,
   channel-selector cursor, meters, counters) is advanced to exactly where
   the per-line events would have left it — one
   :meth:`~repro.interconnect.link.Link.reserve_round_trips` per link that
   carried lines, one ``reserve_batch`` on DRAM — and a single real event
   at the last line's completion resolves the burst, records its latencies
   and reaps its window slots.

Equivalence is guaranteed by construction only under the governor's
preconditions; any burst that fails one is **split** back into the exact
per-line packets of the reference path (see
:meth:`repro.fpga.afu.DmaEngine._split_burst`), so declining is always
correct.  The preconditions:

* the engine is wired to the **pass-through** datapath (no multiplexer
  tree, a sole DMA master: nothing else can interleave with the planned
  reservations);
* the packet is a **read** burst of whole cache lines — posted writes keep
  per-line futures so the streaming pipeline's backlog stall drains at
  exactly the reference granularity;
* the DMA engine's queue is empty and every outstanding request is itself
  a committed burst line ("all virtual"): a real in-flight packet would
  have pending global events that must interleave with our reservations
  in arrival order;
* the burst falls within **one translated page**, that page is mapped
  readable, and its translation is a present IOTLB **tag hit**;
* ``speculative_region_opt`` is **off**: the §6.5 same-region pipeline
  makes per-line translation latency depend on the interleaving of future
  accesses, which a committed plan cannot know.  With the optimization
  off, translation latency is the time-invariant hit latency and the
  IOMMU's streak state is unobservable, so skipping its updates is exact.

Known (documented) approximations, none observable in full-run totals:

* meters and IOTLB hit counters for a committed burst are recorded at
  commit / burst completion rather than spread across per-line instants,
  so a measurement-window reset taken *while a burst is in flight*
  attributes those lines to a different window than the reference path
  would.  All shipped experiments reset instruments only while the
  platform is idle.
* read payloads are captured from the functional store at commit rather
  than at each line's DRAM instant — identical unless the sole master
  writes a location and re-reads it within one DRAM round trip, which no
  streaming accelerator does (reads and writes target disjoint buffers).

One known gap that *is* observable (it predates the memo, which reproduces
``_plan`` exactly): on ``VA``, a burst planned while an earlier burst's
lines are still in flight sees all of those lines' link reservations as
backlog, where the per-line path's selector sees only the ones made so
far.  The picks agree until the links saturate; a memory-bound reader
(64 B/cycle) on ``VA`` drifts from the reference, pinned channels and
compute-bound readers do not (``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.interconnect.channel_selector import VirtualChannel
from repro.sim.clock import Clock
from repro.sim.engine import Engine, Future
from repro.sim.packet import (
    CACHE_LINE_BYTES,
    REQUEST_HEADER_BYTES,
    SMALL_PACKET_BYTES,
    Packet,
    PacketKind,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fpga.afu import DmaEngine
    from repro.interconnect.topology import MemorySystem

# Local event kinds, in no particular order (ties resolve by seq, exactly
# like the global engine's (time, seq) heap entries).
_EXIST_COMPLETE = 0  # a pre-existing virtual line completes (frees a slot)
_WAKEUP = 1  # the issue throttle re-arms
_SCHED_SELECT = 2  # shell hop done; translation latency starts
_SELECT = 3  # translation done; channel selection + request link
_AT_MEMORY = 4  # request reached memory; DRAM access starts
_DELIVERED = 5  # DRAM done; response link starts
_COMPLETE = 6  # response reached the accelerator


#: Most relative plans one :class:`FastPath` keeps (oldest evicted first).
#: A steady stream revisits a handful of states; a memory-bound one a few
#: hundred.  A plan is ~3 tuples of one int per line, so this is ~2 MB.
PLAN_MEMO_BOUND = 256


@dataclass(frozen=True, slots=True)
class BurstPlan:
    """One planned burst as offsets from the instant it was planned at.

    Everything :meth:`FastPath._commit` applies, and nothing per line that
    it does not need: a burst planned at ``now`` commits at any later
    ``now'`` whose relative state is equal by adding ``now'`` throughout.
    """

    next_issue: int  # the issue throttle re-arms
    completions: Tuple[int, ...]  # every line's completion, ascending
    latencies: Tuple[int, ...]  # complete - issue per line, in line order
    cursor_delta: int  # round-robin picks consumed (VA only)
    dram_free: int  # DRAM busy through
    #: ``(link index, lines carried, to_memory busy through, from_memory
    #: busy through)`` for each link that carried at least one line.
    link_use: Tuple[Tuple[int, int, int, int], ...]


def _busy_through(server, size_bytes: int, arrivals: List[int]) -> int:
    """``submit()``'s shaping math over one server's planned arrivals."""
    free = server._next_free_ps
    service = server.service_time_ps(size_bytes)
    for at in arrivals:
        free = (at if at > free else free) + service
    return free


class FastPath:
    """Plans and commits coalesced read bursts on the pass-through path."""

    def __init__(
        self,
        engine: Engine,
        memory: "MemorySystem",
        clock: Clock,
        shell_latency_ps: int,
    ) -> None:
        self.engine = engine
        self.memory = memory
        self.iommu = memory.iommu
        self.selector = memory.selector
        self.dram = memory.dram
        self.clock = clock
        self.shell_latency_ps = shell_latency_ps
        # Visibility counters (read by benchmarks and the equivalence tests).
        self.committed_bursts = 0
        self.committed_lines = 0
        self.declined_bursts = 0
        self.planned_bursts = 0  # memo misses: bursts that ran _plan
        self._memo: Dict[tuple, BurstPlan] = {}
        # A VA pick is ``cursor % ties`` with 1 <= ties <= n_links, so the
        # cursor matters only modulo lcm(1..n_links).
        self._cursor_period = math.lcm(*range(1, len(self.selector.all_links) + 1))

    # -- governor -------------------------------------------------------------

    def try_commit(
        self, dma: "DmaEngine", packet: Packet, channel: VirtualChannel
    ) -> Optional[Future]:
        """Commit ``packet`` as an analytic burst, or return ``None``.

        ``None`` means "take the per-line reference path"; nothing has been
        mutated in that case.
        """
        iommu = self.iommu
        if (
            packet.kind is not PacketKind.DMA_READ_REQ
            or iommu.speculative_region_opt
            or packet.size <= 0
            or packet.size % CACHE_LINE_BYTES
            or dma.outstanding != len(dma._virtual_completions)
        ):
            self.declined_bursts += 1
            return None
        address = packet.address
        page_mask = iommu.page_table.page_size - 1
        if (address & ~page_mask) != ((address + packet.size - 1) & ~page_mask):
            self.declined_bursts += 1
            return None  # page-crossing burst: split at the boundary instead
        entry = iommu.page_table.lookup(address)
        if entry is None or not entry.readable:
            self.declined_bursts += 1
            return None  # would fault: the reference path must observe it
        vpn = address >> iommu.iotlb.page_shift
        if iommu.iotlb._tags[vpn & iommu.iotlb.index_mask] != vpn:
            self.declined_bursts += 1
            return None  # IOTLB miss: the walk serializes on real state
        hpa_base = (entry.frame << iommu.page_table.page_shift) | (address & page_mask)
        lines = packet.size // CACHE_LINE_BYTES
        # A slot whose completion instant has passed is free — the per-line
        # path reaps before it issues too — and with no completion left in
        # the past every instant the plan computes is >= now.
        dma._reap_virtual()
        key = self._relative_state(dma, lines, channel)
        plan = self._memo.get(key)
        if plan is None:
            plan = self._plan_relative(dma, lines, channel)
            if len(self._memo) >= PLAN_MEMO_BOUND:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = plan
            self.planned_bursts += 1
        return self._commit(dma, packet, hpa_base, plan)

    # -- memo: a plan is a function of the state relative to now --------------

    def _relative_state(
        self, dma: "DmaEngine", lines: int, channel: VirtualChannel
    ) -> tuple:
        """Everything :meth:`_plan` reads, as offsets from ``now``.

        ``_plan`` only ever takes ``max``/``+``/``<`` of instants, and the
        earliest one it handles is ``now`` itself, so (a) shifting every
        instant by the same amount shifts its result by that amount, and
        (b) a server free time or throttle instant already in the past acts
        exactly like one equal to ``now``: both clamp to offset 0.  The
        constants it reads (service times, latencies, intervals) are part
        of the key, so a plan made before ``Link.degrade()`` cannot be
        served after it.
        """
        now = self.engine.now
        dram_server = self.dram._server
        dram_free = dram_server._next_free_ps - now
        next_issue = dma._next_issue_ps - now
        state = [
            lines,
            channel,
            # Pinned channels never read the round-robin cursor.
            self.selector._rr_cursor % self._cursor_period
            if channel is VirtualChannel.VA
            else 0,
            dma.max_outstanding,
            self.clock.cycles(dma.issue_interval_cycles),
            self.shell_latency_ps,
            self.iommu.hit_latency_ps,
            dram_server.service_time_ps(CACHE_LINE_BYTES),
            dram_server.latency_ps,
            dram_free if dram_free > 0 else 0,
            next_issue if next_issue > 0 else 0,
        ]
        for link in self.selector.all_links:
            for server, size in (
                (link.to_memory, SMALL_PACKET_BYTES),
                (link.from_memory, REQUEST_HEADER_BYTES + CACHE_LINE_BYTES),
            ):
                free = server._next_free_ps - now
                state += (
                    server.service_time_ps(size),
                    server.latency_ps,
                    free if free > 0 else 0,
                )
        # The window: every outstanding line is virtual (governor) and
        # completes strictly after now (just reaped).
        state += [when - now for when in dma._virtual_completions]
        return tuple(state)

    def _plan_relative(
        self, dma: "DmaEngine", lines: int, channel: VirtualChannel
    ) -> BurstPlan:
        """Run :meth:`_plan` and keep what a commit needs, relative to now."""
        now = self.engine.now
        plan = self._plan(dma, lines, channel)
        issue_ps: List[int] = plan["issue_ps"]
        complete_ps: List[int] = plan["complete_ps"]
        link_use = []
        for index, link in enumerate(self.selector.all_links):
            requests = [at for chosen, at in plan["req_arrival"] if chosen == index]
            if not requests:
                continue
            responses = [at for chosen, at in plan["resp_arrival"] if chosen == index]
            link_use.append((
                index,
                len(requests),
                _busy_through(link.to_memory, SMALL_PACKET_BYTES, requests) - now,
                _busy_through(
                    link.from_memory, REQUEST_HEADER_BYTES + CACHE_LINE_BYTES, responses
                ) - now,
            ))
        return BurstPlan(
            next_issue=plan["next_issue"] - now,
            completions=tuple(sorted(when - now for when in complete_ps)),
            latencies=tuple(
                complete - issue for issue, complete in zip(issue_ps, complete_ps)
            ),
            cursor_delta=plan["cursor"] - self.selector._rr_cursor,
            dram_free=_busy_through(
                self.dram._server, CACHE_LINE_BYTES, plan["dram_arrival"]
            ) - now,
            link_use=tuple(link_use),
        )

    # -- plan: the reference event semantics on a private heap ---------------

    def _plan(self, dma: "DmaEngine", lines: int, channel: VirtualChannel) -> dict:
        """Replay the per-line event chain locally; mutate nothing shared.

        Events are ``(time, seq, kind, line)`` tuples on a local heap; seq
        is assigned at scheduling time, so same-instant ordering matches
        the global engine's tie-breaking exactly.
        """
        now = self.engine.now
        interval_ps = self.clock.cycles(dma.issue_interval_cycles)
        shell_ps = self.shell_latency_ps
        hit_ps = self.iommu.hit_latency_ps
        dram_server = self.dram._server
        dram_svc = dram_server.service_time_ps(CACHE_LINE_BYTES)
        dram_lat = dram_server.latency_ps
        links = self.selector.all_links
        req_svc = [link.to_memory.service_time_ps(SMALL_PACKET_BYTES) for link in links]
        resp_svc = [
            link.from_memory.service_time_ps(REQUEST_HEADER_BYTES + CACHE_LINE_BYTES)
            for link in links
        ]
        fixed = self.selector.fixed_link(channel)
        fixed_index = links.index(fixed) if fixed is not None else -1

        # Shadowed shared state.
        to_free = [link.to_memory._next_free_ps for link in links]
        from_free = [link.from_memory._next_free_ps for link in links]
        dram_free = dram_server._next_free_ps
        cursor = self.selector._rr_cursor
        next_issue = dma._next_issue_ps
        in_flight = dma.outstanding
        max_outstanding = dma.max_outstanding

        issue_ps = [0] * lines
        complete_ps = [0] * lines
        link_choice = [0] * lines
        req_arrival: List[Tuple[int, int]] = []  # per to_memory reservation
        dram_arrival: List[int] = []
        resp_arrival: List[Tuple[int, int]] = []  # per from_memory reservation

        heap: List[Tuple[int, int, int, int]] = []
        seq = 0
        # Pre-existing virtual lines complete as if they were real events
        # scheduled long ago: they get the smallest seq numbers.
        for when in sorted(dma._virtual_completions):
            heap.append((when, seq, _EXIST_COMPLETE, -1))
            seq += 1
        heapq.heapify(heap)

        unissued = 0  # next line index to issue
        wakeup_pending = False

        def try_issue(at: int) -> None:
            # The exact logic of DmaEngine._try_issue for queued lines.
            nonlocal unissued, in_flight, next_issue, wakeup_pending, seq
            while unissued < lines and in_flight < max_outstanding:
                if at < next_issue:
                    if not wakeup_pending:
                        wakeup_pending = True
                        heapq.heappush(
                            heap, (max(next_issue, at), seq, _WAKEUP, -1)
                        )
                        seq += 1
                    return
                line = unissued
                unissued += 1
                in_flight += 1
                issue_ps[line] = at
                next_issue = at + interval_ps
                heapq.heappush(heap, (at + shell_ps, seq, _SCHED_SELECT, line))
                seq += 1

        try_issue(now)
        done = 0
        while done < lines:
            at, _order, kind, line = heapq.heappop(heap)
            if kind == _EXIST_COMPLETE:
                in_flight -= 1
                try_issue(at)
            elif kind == _WAKEUP:
                wakeup_pending = False
                try_issue(at)
            elif kind == _SCHED_SELECT:
                heapq.heappush(heap, (at + hit_ps, seq, _SELECT, line))
                seq += 1
            elif kind == _SELECT:
                if fixed_index >= 0:
                    index = fixed_index
                else:
                    backlogs = [
                        max(0, to_free[i] - at) + max(0, from_free[i] - at)
                        for i in range(len(links))
                    ]
                    index = self.selector.auto_pick(backlogs, cursor)
                    cursor += 1
                link_choice[line] = index
                req_arrival.append((index, at))
                start = max(at, to_free[index])
                to_free[index] = start + req_svc[index]
                at_memory = to_free[index] + links[index].to_memory.latency_ps
                heapq.heappush(heap, (at_memory, seq, _AT_MEMORY, line))
                seq += 1
            elif kind == _AT_MEMORY:
                dram_arrival.append(at)
                start = max(at, dram_free)
                dram_free = start + dram_svc
                heapq.heappush(heap, (dram_free + dram_lat, seq, _DELIVERED, line))
                seq += 1
            elif kind == _DELIVERED:
                index = link_choice[line]
                resp_arrival.append((index, at))
                start = max(at, from_free[index])
                from_free[index] = start + resp_svc[index]
                complete = from_free[index] + links[index].from_memory.latency_ps
                heapq.heappush(heap, (complete, seq, _COMPLETE, line))
                seq += 1
            else:  # _COMPLETE
                complete_ps[line] = at
                in_flight -= 1
                done += 1
                try_issue(at)
        return {
            "issue_ps": issue_ps,
            "complete_ps": complete_ps,
            "cursor": cursor,
            "next_issue": next_issue,
            "req_arrival": req_arrival,
            "dram_arrival": dram_arrival,
            "resp_arrival": resp_arrival,
        }

    # -- commit ---------------------------------------------------------------

    def _commit(
        self, dma: "DmaEngine", packet: Packet, hpa_base: int, plan: BurstPlan
    ) -> Future:
        now = self.engine.now
        lines = len(plan.latencies)
        links = self.selector.all_links

        # Advance everything the per-line events would have touched, one
        # step per server: each ends busy through the instant its planned
        # reservation chain ends, and a server the burst never used keeps
        # its (possibly stale) free time.
        self.selector._rr_cursor += plan.cursor_delta
        for index, carried, to_free, from_free in plan.link_use:
            links[index].reserve_round_trips(
                carried,
                SMALL_PACKET_BYTES,
                now + to_free,
                REQUEST_HEADER_BYTES + CACHE_LINE_BYTES,
                now + from_free,
            )
        self.dram._server.reserve_batch(CACHE_LINE_BYTES, lines, now + plan.dram_free)
        self.iommu.iotlb.stats.hits += lines
        self.dram.reads += lines

        # Functional data movement, captured in commit order (exact for a
        # sole master whose in-flight reads and writes are disjoint).
        data = self.dram.store.read(hpa_base, lines * CACHE_LINE_BYTES)

        dma._outstanding += lines
        dma._next_issue_ps = now + plan.next_issue
        window = dma._virtual_completions
        overlap = bool(window)
        window.extend([now + offset for offset in plan.completions])
        if overlap:  # two ascending runs: one merge pass
            window.sort()
        future = self.engine.future()
        self.committed_bursts += 1
        self.committed_lines += lines

        def finish() -> None:
            dma._reap_virtual()
            dma.latency.record_many(plan.latencies)
            dma.read_meter.record_burst(lines * CACHE_LINE_BYTES, lines)
            self.memory.read_meter.record_burst(lines * CACHE_LINE_BYTES, lines)
            future.set_result(data)
            dma._try_issue()

        self.engine.call_at(now + plan.completions[-1], finish)
        return future
