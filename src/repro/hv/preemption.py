"""Preemptive temporal multiplexing of one physical accelerator (§4.2, §5).

:class:`PhysicalAccelerator` is the hypervisor-side manager for one AFU
socket.  It owns the list of virtual accelerators bound to the socket and
runs the scheduling loop that the paper describes:

* pick the next virtual accelerator per the configured policy;
* **context switch out**: send the preempt command, wait for the
  accelerator to drain in-flight transactions and serialize its state to
  the guest's DRAM buffer (or forcibly reset it after the timeout, §4.2),
  cache its application registers, and pulse the reset line for isolation;
* **context switch in**: replay cached application registers, program the
  auditor's offset-table entry for the incoming guest (page table
  slicing's only per-switch cost — the IO page table itself is *not*
  switched), restore saved state, and restart the job;
* run for one time slice (or to completion).

A physical accelerator with exactly one virtual accelerator never
preempts — temporal multiplexing overhead only appears with 2+ jobs,
matching the 1-job baseline of Fig. 8.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.accel.base import ExecutionContext
from repro.core.vcu import (
    REG_ACCEL_SELECT,
    REG_RESET,
    REG_SLICE_BASE,
    REG_WINDOW_BASE,
    REG_WINDOW_SIZE,
)
from repro.errors import SchedulerError
from repro.fpga.shell import SHELL_MMIO_BYTES
from repro.hv.mdev import VAccelState, VirtualAccelerator
from repro.hv.scheduler import RoundRobinScheduler, SchedulingPolicy
from repro.interconnect.channel_selector import VirtualChannel
from repro.sim.clock import gbps_to_bytes_per_ps
from repro.sim.engine import Process, any_of
from repro.sim.stats import UtilizationTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor


class PhysicalAccelerator:
    """Scheduler + context-switch machinery for one AFU socket."""

    def __init__(self, hypervisor: "OptimusHypervisor", socket_index: int) -> None:
        self.hypervisor = hypervisor
        self.platform = hypervisor.platform
        self.engine = self.platform.engine
        self.socket_index = socket_index
        self.socket = self.platform.sockets[socket_index]
        self.vaccels: List[VirtualAccelerator] = []
        self.scheduler: SchedulingPolicy = RoundRobinScheduler(
            self.platform.params.time_slice_ps
        )
        self.current: Optional[VirtualAccelerator] = None
        self.current_process: Optional[Process] = None
        self.current_ctx: Optional[ExecutionContext] = None
        self.default_channel = VirtualChannel.VA
        self._loop: Optional[Process] = None
        self.context_switches = 0
        # Tracing: scheduler decisions and save/restore phases are pure
        # control plane — identical between simulator modes.
        self._trace = self.engine.trace
        if self._trace is not None:
            self._trace_tid = self._trace.thread(f"hv.pa{socket_index}")

    # -- attachment ---------------------------------------------------------------

    def attach(self, vaccel: VirtualAccelerator) -> None:
        if vaccel.physical_index != self.socket_index:
            raise SchedulerError("vaccel bound to a different physical accelerator")
        self.vaccels.append(vaccel)
        vaccel.state = VAccelState.QUEUED
        vaccel.utilization = UtilizationTracker(self.engine, vaccel.name)
        vaccel.job.completion = self.engine.future()

    def start(self) -> None:
        """Begin (or resume) the scheduling loop."""
        if self._loop is None or self._loop.completion.done():
            self._loop = self.engine.spawn(
                self._schedule_loop(), name=f"sched.pa{self.socket_index}"
            )

    # -- cost model ------------------------------------------------------------------

    def _state_transfer_ps(self, nbytes: int) -> int:
        rate = gbps_to_bytes_per_ps(self.platform.params.state_save_bandwidth_gbps)
        return math.ceil(nbytes / rate)

    # -- the scheduling loop ------------------------------------------------------------

    def _runnable(self) -> List[VirtualAccelerator]:
        return [
            va for va in self.vaccels
            if va.started and not va.job.done and not va.quarantined
        ]

    def _schedule_loop(self) -> Generator:
        while True:
            runnable = self._runnable()
            if not runnable:
                if self.current is not None:
                    # Normally the occupant just finished; during a
                    # migration it may be an unfinished job being pulled.
                    yield from self._switch_out()
                return
            choice, slice_ps = self.scheduler.pick(runnable)
            if self._trace is not None:
                self._trace.instant("hv.sched.pick", self.engine.now,
                                    tid=self._trace_tid, cat="hv",
                                    args={"vaccel": choice.name,
                                          "slice_ps": slice_ps,
                                          "runnable": len(runnable)})
            if self.current is not choice:
                if self.current is not None:
                    yield from self._switch_out()
                yield from self._switch_in(choice)
            assert self.current_process is not None
            timer = self.engine.timer(slice_ps)
            yield any_of(self.engine, [timer, self.current_process.completion])
            if self.current.job.done:
                yield from self._retire()
                continue
            if self.current_process.completion.done():
                # The job's process ended without finishing its work: the
                # modeled circuit crashed (e.g. a malformed register made
                # it raise).  Reset the slot and fail the job visibly.
                yield from self._fail_current()
                continue
            if len(self._runnable()) == 1:
                # Sole occupant: no temporal multiplexing, no preemption.
                continue
            # Slice expired with competitors: preempt at the fixed interval.
            yield from self._switch_out()

    # -- context switch: out ----------------------------------------------------------------

    def _switch_out(self) -> Generator:
        vaccel = self.current
        if vaccel is None:
            return
        process = self.current_process
        ctx = self.current_ctx
        assert process is not None and ctx is not None
        params = self.platform.params
        save_start_ps = self.engine.now
        forced = False

        if not process.completion.done():
            save_cost = self._state_transfer_ps(vaccel.job.state_size())
            saved = ctx.arm_preemption(save_cost)
            timeout = self.engine.timer(params.preemption_timeout_ps)
            winner = yield any_of(self.engine, [saved, process.completion, timeout])
            if winner is timeout and not saved.done() and not process.completion.done():
                # Misbehaving accelerator: forcible reset (§4.2).
                process.interrupt()
                vaccel.forced_resets += 1
                forced = True
                # Unsaved progress is lost; the job restarts from its last
                # successful checkpoint when rescheduled.
            else:
                yield params.preempt_protocol_ps  # drain/handshake MMIO traps
                if not vaccel.job.done:
                    vaccel.saved_state = vaccel.job.save_state()
                    self._spill_state(vaccel)
                    vaccel.preempt_count += 1

        # Cache application registers so queued MMIO reads can be served.
        vaccel.reg_cache.update(self.socket.registers.snapshot())
        # Reset the physical accelerator to clear state for isolation (§4.1).
        self._vcu_write(REG_RESET, self.socket_index)
        if vaccel.utilization is not None:
            vaccel.utilization.end()
        vaccel.state = VAccelState.DONE if vaccel.job.done else VAccelState.QUEUED
        self.current = None
        self.current_process = None
        self.current_ctx = None
        self.context_switches += 1
        if self._trace is not None:
            self._trace.complete("hv.ctxsw.save", save_start_ps, self.engine.now,
                                 tid=self._trace_tid, cat="hv",
                                 args={"vaccel": vaccel.name, "forced": forced,
                                       "done": vaccel.job.done})

    def _spill_state(self, vaccel: VirtualAccelerator) -> None:
        """Functionally place the saved state in the guest's DRAM buffer."""
        if vaccel.state_buffer_gva is None or vaccel.saved_state is None:
            return
        vaccel.vm.write_memory(vaccel.state_buffer_gva, vaccel.saved_state)

    # -- context switch: in ---------------------------------------------------------------------

    def _switch_in(self, vaccel: VirtualAccelerator) -> Generator:
        params = self.platform.params
        restore_start_ps = self.engine.now
        yield params.resume_protocol_ps

        # Program the auditor's offset-table entry through the VCU: this is
        # the entirety of page table slicing's per-switch work.
        self._vcu_write(REG_ACCEL_SELECT, self.socket_index)
        self._vcu_write(REG_WINDOW_BASE, vaccel.window_base_gva or 0)
        self._vcu_write(REG_WINDOW_SIZE, vaccel.window_size)
        self._vcu_write(REG_SLICE_BASE, vaccel.slice.iova_base)
        yield 4 * params.mmio_native_ps

        # Replay cached application registers (§4.2: idempotent registers
        # are cached in software and synchronized while scheduling).
        self.socket.registers.restore(vaccel.cached_registers())
        self.socket.dma.max_outstanding = vaccel.job.profile.max_outstanding

        if vaccel.saved_state is not None:
            yield self._state_transfer_ps(len(vaccel.saved_state))
            vaccel.job.restore_state(vaccel.saved_state)

        ctx = ExecutionContext(
            self.engine,
            self.socket,
            clock=vaccel.job.profile.clock,
            channel=self.default_channel,
        )
        vaccel.job.configure(vaccel.cached_registers())
        self.current = vaccel
        self.current_ctx = ctx
        self.current_process = self.engine.spawn(
            vaccel.job.body(ctx), name=f"job.{vaccel.name}"
        )
        vaccel.state = VAccelState.SCHEDULED
        vaccel.schedule_count += 1
        if vaccel.utilization is not None:
            vaccel.utilization.begin()
        if self._trace is not None:
            self._trace.complete("hv.ctxsw.restore", restore_start_ps,
                                 self.engine.now, tid=self._trace_tid, cat="hv",
                                 args={"vaccel": vaccel.name,
                                       "restored_state": vaccel.saved_state is not None})

    def _fail_current(self) -> Generator:
        vaccel = self.current
        process = self.current_process
        assert vaccel is not None and process is not None
        if not vaccel.quarantined:
            # Quarantines are counted by the watchdog (auditor violation
            # counters), not as spontaneous circuit crashes.
            vaccel.crashes = getattr(vaccel, "crashes", 0) + 1
        vaccel.job.done = True  # dead: never scheduled again
        self.socket.reset()
        if vaccel.utilization is not None:
            vaccel.utilization.end()
        vaccel.state = VAccelState.DONE
        completion = vaccel.job.completion
        if completion is not None and not completion.done():
            exc = process.completion.exception()
            if exc is not None:
                completion.set_exception(exc)
            else:
                completion.set_result(False)
        self.current = None
        self.current_process = None
        self.current_ctx = None
        return
        yield  # pragma: no cover - marks this as a generator

    def _retire(self) -> Generator:
        vaccel = self.current
        assert vaccel is not None
        if vaccel.utilization is not None:
            vaccel.utilization.end()
        vaccel.state = VAccelState.DONE
        if vaccel.job.completion is not None and not vaccel.job.completion.done():
            vaccel.job.completion.set_result(True)
        self.current = None
        self.current_process = None
        self.current_ctx = None
        return
        yield  # pragma: no cover - marks this as a generator

    # -- VCU access --------------------------------------------------------------------------------

    def _vcu_write(self, register: int, value: int) -> None:
        self.platform.shell.mmio_write(SHELL_MMIO_BYTES + register, value)
