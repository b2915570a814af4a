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
2. **Plan, on a miss.**  :meth:`FastPath._plan_relative` runs the burst's
   lines as ordinary single-line packets down the **real per-line path** —
   a private *sandbox*: one more pass-through datapath (``DmaEngine`` →
   ``Shell`` → ``MemorySystem`` → ``Iommu`` → ``ChannelSelector`` →
   ``Link`` → ``Dram``) on an engine of its own, mirroring the live
   servers, nothing touching the global engine — and the result is kept
   as a :class:`BurstPlan` of offsets in a small per-``FastPath`` memo
   (:data:`PLAN_MEMO_BOUND`).  That path only ever adds to and compares
   instants that are all ``>= now``, so a plan shifts rigidly with ``now``
   and cannot tell a stale free time from one equal to ``now``: an equal
   key *is* an equal plan, and the sandbox's own clock is as good a
   ``now`` as any.  A steady stream revisits a handful of keys, so the
   sandbox runs a few times per run; there is no second model of the
   datapath to keep in step with the first.
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

One known gap that *is* observable: on ``VA``, a burst planned while an
earlier burst's lines are still in flight starts from links already
reserved through the last of those lines, where the per-line path's
selector sees only the reservations made so far.  The picks agree until
the links saturate; a memory-bound reader (64 B/cycle) on ``VA`` drifts
from the reference, pinned channels and compute-bound readers do not
(``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from repro.fpga.afu import DmaEngine
from repro.fpga.shell import Shell
from repro.interconnect.channel_selector import ChannelSelector, VirtualChannel
from repro.interconnect.link import Link
from repro.interconnect.topology import MemorySystem
from repro.mem.dram import Dram
from repro.mem.iommu import Iommu
from repro.sim.clock import Clock
from repro.sim.engine import Engine, Future, untraced_engine
from repro.sim.packet import (
    CACHE_LINE_BYTES,
    REQUEST_HEADER_BYTES,
    SMALL_PACKET_BYTES,
    Packet,
    PacketKind,
    make_dma_request,
)


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


def _build_sandbox(memory: MemorySystem) -> Shell:
    """One more pass-through datapath, private to one planner.

    The real components on an engine of their own, shaped like ``memory``
    (same links, same page size).  Its IOMMU holds the only translation a
    committed burst can meet (governor): one mapped page, IOTLB-resident,
    §6.5 off.  Rates, latencies and occupancy are placeholders here —
    :meth:`FastPath._plan_relative` mirrors them from the live servers
    before every run.  Components take their trace scope from their engine,
    so an untraced one keeps planning out of traces.
    """
    engine = untraced_engine()
    page_size = memory.iommu.page_size
    iommu = Iommu(engine, page_size=page_size, speculative_region_opt=False)
    iommu.map(0, 0)
    iommu.iotlb.install(0, 0)
    upi, *pcie_links = (
        Link(engine, link.name, link.kind, bandwidth_gbps=1.0, latency_ps=0)
        for link in memory.selector.all_links
    )
    mirror = MemorySystem(
        engine, iommu, Dram(engine, size_bytes=page_size), ChannelSelector(upi, pcie_links)
    )
    return Shell(engine, mirror, latency_ps=0)


class FastPath:
    """Plans and commits coalesced read bursts on the pass-through path."""

    def __init__(
        self,
        engine: Engine,
        memory: MemorySystem,
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
        self.planned_bursts = 0  # memo misses: bursts run through the sandbox
        self._memo: Dict[tuple, BurstPlan] = {}
        # A VA pick is ``cursor % ties`` with 1 <= ties <= n_links, so the
        # cursor matters only modulo lcm(1..n_links).
        self._cursor_period = math.lcm(*range(1, len(self.selector.all_links) + 1))
        self._sandbox = _build_sandbox(memory)

    # -- governor -------------------------------------------------------------

    def try_commit(
        self, dma: DmaEngine, packet: Packet, channel: VirtualChannel
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
        self, dma: DmaEngine, lines: int, channel: VirtualChannel
    ) -> tuple:
        """Everything a burst's per-line run reads, as offsets from ``now``.

        The per-line path only ever takes ``max``/``+``/``<`` of instants,
        and the earliest one it handles is ``now`` itself, so (a) shifting
        every instant by the same amount shifts its result by that amount,
        and (b) a server free time or throttle instant already in the past
        acts exactly like one equal to ``now``: both clamp to offset 0.
        The constants it reads (service times, latencies, intervals) are
        part of the key, so a plan made before ``Link.degrade()`` cannot be
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

    # -- plan: the burst's lines down the real per-line path, sandboxed -------

    def _plan_relative(
        self, dma: DmaEngine, lines: int, channel: VirtualChannel
    ) -> BurstPlan:
        """Run the burst line by line on the sandbox; mutate nothing shared.

        The sandbox's clock ``t0`` is just another ``now`` (see
        :meth:`_relative_state`): the live state goes in shifted by
        ``t0 - now`` and the plan is read back minus ``t0``.
        """
        shell = self._sandbox
        engine = shell.engine
        memory = shell.memory
        selector = memory.selector
        t0 = engine.now
        shift = t0 - self.engine.now

        shell.latency_ps = self.shell_latency_ps
        memory.iommu.hit_latency_ps = self.iommu.hit_latency_ps
        selector._rr_cursor = self.selector._rr_cursor
        mirrored = [(memory.dram._server, self.dram._server)]
        for link, live in zip(selector.all_links, self.selector.all_links):
            mirrored += (link.to_memory, live.to_memory), (link.from_memory, live.from_memory)
        for server, live in mirrored:
            server.set_rate(live.bytes_per_ps)
            server.latency_ps = live.latency_ps
            server._next_free_ps = live._next_free_ps + shift
        memory.reset_meters()  # each link's packet count: this burst's lines

        probe = DmaEngine(
            engine,
            dma.accel_id,
            clock=self.clock,
            issue_interval_cycles=dma.issue_interval_cycles,
            max_outstanding=dma.max_outstanding,
        )
        probe.sink = shell.passthrough_dma_sink
        probe._next_issue_ps = dma._next_issue_ps + shift
        # The window: every outstanding line is a committed burst line
        # (governor) that frees its slot at its completion instant.  Those
        # events go in first, ascending, so they hold the smallest seqs —
        # as the completions of lines issued long ago would.
        probe._outstanding = len(dma._virtual_completions)

        def release() -> None:
            probe._outstanding -= 1
            probe._try_issue()

        for when in dma._virtual_completions:
            engine.call_at(when + shift, release)

        done_ps = [0] * lines

        def note_done(line: int, _future: Future) -> None:
            done_ps[line] = engine.now

        # Enqueued in order at one instant, as DmaEngine._split_burst does.
        packets = [
            make_dma_request(
                PacketKind.DMA_READ_REQ, line * CACHE_LINE_BYTES, CACHE_LINE_BYTES, dma.accel_id
            )
            for line in range(lines)
        ]
        for line, packet in enumerate(packets):
            probe._enqueue(packet, channel).add_done_callback(partial(note_done, line))
        engine.run()

        return BurstPlan(
            next_issue=probe._next_issue_ps - t0,
            completions=tuple(sorted(at - t0 for at in done_ps)),
            latencies=tuple(
                at - packet.issued_at_ps for at, packet in zip(done_ps, packets)
            ),
            cursor_delta=selector._rr_cursor - self.selector._rr_cursor,
            dram_free=memory.dram._server._next_free_ps - t0,
            link_use=tuple(
                (
                    index,
                    carried,
                    link.to_memory._next_free_ps - t0,
                    link.from_memory._next_free_ps - t0,
                )
                for index, link in enumerate(selector.all_links)
                if (carried := link.meter_to_memory.packets_total)
            ),
        )

    # -- commit ---------------------------------------------------------------

    def _commit(
        self, dma: DmaEngine, packet: Packet, hpa_base: int, plan: BurstPlan
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
