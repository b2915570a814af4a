"""Accelerator Functional Unit (AFU) plumbing.

An AFU socket is one *physical accelerator* slot on the FPGA: a register
file reachable over MMIO, a DMA engine that issues CCI-P requests, a reset
line, and a clock domain.  Behavioral accelerator models from
:mod:`repro.accel` run *in* a socket; the hardware monitor (or, for the
pass-through baseline, the shell directly) sits between the socket's DMA
engine and system memory.

The DMA engine models the two properties that shape every throughput
number in the paper:

* **closed-loop issue** — a real CCI-P master has a bounded number of
  outstanding requests; fairness between accelerators emerges from this
  plus round-robin arbitration, not from any explicit bandwidth reservation;
* **issue throttling** — under OPTIMUS the multiplexer tree accepts one
  request every two cycles from each accelerator (§6.3), under pass-through
  one per cycle.  When the IOMMU reports a speculative same-region streak
  the throttle relaxes to back-to-back issue, reproducing §6.5's anomaly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, MmioFault
from repro.interconnect.channel_selector import VirtualChannel
from repro.sim.clock import Clock
from repro.sim.engine import Engine, Future
from repro.sim.packet import (
    CACHE_LINE_BYTES,
    AddressSpace,
    Packet,
    PacketKind,
    make_dma_request,
)
from repro.sim.stats import BandwidthMeter, LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.fastpath import FastPath

#: A DMA sink accepts ``(packet, channel, on_response)`` — the auditor under
#: OPTIMUS, the shell under pass-through.
DmaSink = Callable[[Packet, VirtualChannel, Callable[[Optional[Packet]], None]], None]


class RegisterFile:
    """A 4 KB MMIO page of 64-bit registers, keyed by byte offset.

    Registers may carry side-effect hooks (``on_write``); registers without
    hooks are idempotent "application registers" in the paper's taxonomy
    (§4.2), which the hypervisor may cache and replay during scheduling.
    """

    PAGE_BYTES = 4096

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: Dict[int, int] = {}
        self._write_hooks: Dict[int, Callable[[int], None]] = {}
        self._read_hooks: Dict[int, Callable[[], int]] = {}

    def _check(self, offset: int) -> None:
        if offset < 0 or offset >= self.PAGE_BYTES or offset % 8:
            raise MmioFault(f"{self.name}: bad register offset {offset:#x}")

    def define(self, offset: int, *, on_write: Optional[Callable[[int], None]] = None,
               on_read: Optional[Callable[[], int]] = None, initial: int = 0) -> None:
        self._check(offset)
        self._values[offset] = initial
        if on_write is not None:
            self._write_hooks[offset] = on_write
        if on_read is not None:
            self._read_hooks[offset] = on_read

    def write(self, offset: int, value: int) -> None:
        self._check(offset)
        self._values[offset] = value & (2**64 - 1)
        hook = self._write_hooks.get(offset)
        if hook is not None:
            hook(value)

    def read(self, offset: int) -> int:
        self._check(offset)
        hook = self._read_hooks.get(offset)
        if hook is not None:
            value = hook() & (2**64 - 1)
            self._values[offset] = value
            return value
        return self._values.get(offset, 0)

    def snapshot(self) -> Dict[int, int]:
        """All raw values — used when caching application registers."""
        return dict(self._values)

    def restore(self, values: Dict[int, int]) -> None:
        for offset, value in values.items():
            self._values[offset] = value

    def clear(self) -> None:
        self._values = {offset: 0 for offset in self._values}


class DmaEngine:
    """Closed-loop CCI-P request source for one physical accelerator."""

    def __init__(
        self,
        engine: Engine,
        accel_id: int,
        *,
        clock: Clock,
        issue_interval_cycles: int,
        max_outstanding: int = 64,
        spec_probe: Optional[Callable[[], bool]] = None,
    ) -> None:
        if issue_interval_cycles < 1:
            raise ConfigurationError("issue interval must be >= 1 cycle")
        if max_outstanding < 1:
            raise ConfigurationError("need at least one outstanding slot")
        self.engine = engine
        self.accel_id = accel_id
        self.clock = clock
        self.issue_interval_cycles = issue_interval_cycles
        self.max_outstanding = max_outstanding
        self.spec_probe = spec_probe
        # Precomputed throttle delays for the dominant single-line case.
        self._interval_ps = clock.cycles(issue_interval_cycles)
        self._spec_interval_ps = clock.cycles(1)
        self.sink: Optional[DmaSink] = None
        self._outstanding = 0
        self._next_issue_ps = 0
        self._wakeup_pending = False
        self._waiting: Deque[Tuple[Packet, VirtualChannel, Future]] = deque()
        #: The simulator fast path, attached by the platform builder on the
        #: pass-through datapath when ``params.fast_path`` is on.  ``None``
        #: means every request takes the reference per-line path.
        self.fastpath: Optional["FastPath"] = None
        #: Completion times (ascending) of committed burst lines that hold
        #: window slots but have no per-line completion events; slots free
        #: as simulated time passes them (:meth:`_reap_virtual`).
        self._virtual_completions: List[int] = []
        self.read_meter = BandwidthMeter(engine, f"afu{accel_id}.read")
        self.write_meter = BandwidthMeter(engine, f"afu{accel_id}.write")
        self.latency = LatencyRecorder(f"afu{accel_id}.latency")
        self.dropped = 0

    # -- accelerator-facing API ------------------------------------------------

    def read(
        self,
        address: int,
        size: int = CACHE_LINE_BYTES,
        *,
        channel: VirtualChannel = VirtualChannel.VA,
        coalesced: bool = False,
    ) -> Future:
        """Issue a DMA read; the future resolves to bytes (or None if dropped).

        With ``coalesced=True`` a multi-line request is a *burst*: eligible
        bursts commit on the simulator fast path, the rest are split into
        the exact per-line packets the reference path would issue.
        """
        packet = make_dma_request(
            PacketKind.DMA_READ_REQ, address, size, self.accel_id, coalesced=coalesced
        )
        return self._enqueue(packet, channel)

    def write(
        self,
        address: int,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        *,
        channel: VirtualChannel = VirtualChannel.VA,
        coalesced: bool = False,
    ) -> Future:
        """Issue a DMA write; the future resolves to True (False if dropped).

        Write bursts are always split (never committed): posted-write
        pipelines drain per line, and the fast path must not change that
        granularity.
        """
        if size is None:
            size = len(data) if data is not None else CACHE_LINE_BYTES
        packet = make_dma_request(
            PacketKind.DMA_WRITE_REQ,
            address,
            size,
            self.accel_id,
            data=data,
            coalesced=coalesced,
        )
        return self._enqueue(packet, channel)

    @property
    def outstanding(self) -> int:
        return self._outstanding

    # -- issue machinery -----------------------------------------------------------

    def _enqueue(self, packet: Packet, channel: VirtualChannel) -> Future:
        if self.sink is None:
            raise ConfigurationError("DMA engine is not connected to a datapath")
        if packet.coalesced:
            packet.coalesced = False
            if self.fastpath is not None and not self._waiting:
                committed = self.fastpath.try_commit(self, packet, channel)
                if committed is not None:
                    return committed
            if packet.size > CACHE_LINE_BYTES:
                return self._split_burst(packet, channel)
            # A single-line burst that could not commit is just an ordinary
            # request; fall through to the reference path.
        future = Future(self.engine)
        self._waiting.append((packet, channel, future))
        # _try_issue provably does nothing while the throttle is armed with
        # its wake-up already scheduled and no virtual line waits to be
        # reaped — the state a saturating master enqueues and completes in.
        if (
            not self._wakeup_pending
            or self._virtual_completions
            or self.engine.now >= self._next_issue_ps
        ):
            self._try_issue()
        return future

    def _split_burst(self, packet: Packet, channel: VirtualChannel) -> Future:
        """Decompose a burst into the reference path's per-line packets.

        The sub-requests are enqueued in order at the current instant —
        exactly what a non-coalescing caller would have done — and the
        returned future resolves when the last of them does: the joined
        payload for reads (dropped lines zero-filled, matching the
        streaming pipeline's tolerance), all-acknowledged for writes.
        """
        parts: List[Future] = []
        for offset in range(0, packet.size, CACHE_LINE_BYTES):
            sub_size = min(CACHE_LINE_BYTES, packet.size - offset)
            sub = make_dma_request(
                packet.kind,
                packet.address + offset,
                sub_size,
                packet.accel_id,
                data=(
                    packet.data[offset : offset + sub_size]
                    if packet.data is not None
                    else None
                ),
            )
            parts.append(self._enqueue(sub, channel))
        aggregate = self.engine.future()
        remaining = [len(parts)]
        is_read = packet.kind is PacketKind.DMA_READ_REQ

        def on_part(_done: Future) -> None:
            remaining[0] -= 1
            if remaining[0]:
                return
            if is_read:
                aggregate.set_result(
                    b"".join(
                        part.result()
                        if part.result() is not None
                        else bytes(min(CACHE_LINE_BYTES, packet.size - i * CACHE_LINE_BYTES))
                        for i, part in enumerate(parts)
                    )
                )
            else:
                aggregate.set_result(all(part.result() for part in parts))

        for part in parts:
            part.add_done_callback(on_part)
        return aggregate

    def _issue_interval_ps(self, packet: Packet) -> int:
        interval = self.issue_interval_cycles
        if interval > 1 and self.spec_probe is not None and self.spec_probe():
            interval = 1  # speculative streak: back-to-back issue (§6.5)
            single = self._spec_interval_ps
        else:
            single = self._interval_ps
        if packet.size <= CACHE_LINE_BYTES:
            return single
        # Multi-line requests occupy the issue port once per cache line, so
        # aggregation cannot cheat the per-line throttle of §6.3.
        lines = (packet.size + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES
        return self.clock.cycles(interval * lines)

    def _reap_virtual(self) -> None:
        """Release window slots of committed burst lines whose completion
        time has passed.  Idempotent; callers may invoke it freely."""
        vq = self._virtual_completions
        now = self.engine.now
        if vq and vq[0] <= now:
            passed = bisect_right(vq, now)
            del vq[:passed]
            self._outstanding -= passed

    def _try_issue(self, woken: bool = False) -> None:
        """Issue what the window and the throttle allow; ``woken`` marks the
        call that is the scheduled wake-up event itself."""
        if woken:
            self._wakeup_pending = False
        if self._virtual_completions:
            self._reap_virtual()
        waiting = self._waiting
        max_outstanding = self.max_outstanding
        sink = self.sink
        engine = self.engine
        wake_at = None
        while waiting and self._outstanding < max_outstanding:
            now = engine.now
            if now < self._next_issue_ps:
                wake_at = self._next_issue_ps
                break
            packet, channel, future = waiting.popleft()
            self._outstanding += 1
            self._next_issue_ps = now + self._issue_interval_ps(packet)
            packet.issued_at_ps = now
            # Sink first, wake-up (below) second: the order their events
            # are scheduled in is part of the timing contract.
            sink(packet, channel, partial(self._complete, packet, future))
        else:
            if waiting and self._virtual_completions:
                # Window full with virtual lines in flight: no completion
                # event will re-kick us for those, so wake at the first slot
                # release (a real completion arriving earlier re-kicks anyway).
                wake_at = self._virtual_completions[0]
        # At most one pending wakeup: enqueues while the throttle is armed
        # must not pile O(queue-depth) timers onto the event queue.
        if wake_at is not None and not self._wakeup_pending:
            self._wakeup_pending = True
            now = engine.now
            engine.call_at(wake_at if wake_at > now else now, self._try_issue, True)

    def _complete(self, request: Packet, future: Future, response: Optional[Packet]) -> None:
        self._outstanding -= 1
        self.latency.record(self.engine.now - request.issued_at_ps)
        if response is None:
            self.dropped += 1
            future.set_result(None if request.kind is PacketKind.DMA_READ_REQ else False)
        elif request.kind is PacketKind.DMA_READ_REQ:
            self.read_meter.record(request.size)
            future.set_result(response.data)
        else:
            self.write_meter.record(request.size)
            future.set_result(True)
        # Same skip as in _enqueue.
        if (
            not self._wakeup_pending
            or self._virtual_completions
            or self.engine.now >= self._next_issue_ps
        ):
            self._try_issue()

    def drain(self) -> Future:
        """A future that completes when no requests are in flight or queued.

        The preemption protocol waits on this: "once all in-flight
        transactions have been processed, the accelerator notifies OPTIMUS
        that context has been successfully saved" (§4.2).
        """
        future = self.engine.future()

        def poll() -> None:
            self._reap_virtual()
            if self._outstanding == 0 and not self._waiting:
                future.set_result(None)
            else:
                self.engine.call_after(self.clock.cycles(8), poll)

        poll()
        return future

    def abandon_queued(self) -> int:
        """Drop not-yet-issued requests (used on forcible reset)."""
        dropped = len(self._waiting)
        for _packet, _channel, future in self._waiting:
            if not future.done():
                future.set_result(None)
        self._waiting.clear()
        return dropped

    def reset_meters(self) -> None:
        self.read_meter.reset()
        self.write_meter.reset()
        self.latency.reset()


class AfuSocket:
    """One physical accelerator slot: registers + DMA engine + reset line."""

    def __init__(
        self,
        engine: Engine,
        accel_id: int,
        *,
        clock: Clock,
        issue_interval_cycles: int,
        max_outstanding: int = 64,
        spec_probe: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.engine = engine
        self.accel_id = accel_id
        self.clock = clock
        self.registers = RegisterFile(f"afu{accel_id}.regs")
        self.dma = DmaEngine(
            engine,
            accel_id,
            clock=clock,
            issue_interval_cycles=issue_interval_cycles,
            max_outstanding=max_outstanding,
            spec_probe=spec_probe,
        )
        self.reset_count = 0

    def connect(self, sink: DmaSink) -> None:
        self.dma.sink = sink

    def reset(self) -> None:
        """Pull the reset line: clear registers and queued DMAs.

        The VCU's reset table drives this on VM context switches to clear
        state for isolation (§4.1).
        """
        self.reset_count += 1
        self.registers.clear()
        self.dma.abandon_queued()

    def mmio_write(self, offset: int, value: int) -> None:
        self.registers.write(offset, value)

    def mmio_read(self, offset: int) -> int:
        return self.registers.read(offset)
