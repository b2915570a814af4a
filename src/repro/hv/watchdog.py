"""Per-guest forward-progress watchdog.

OPTIMUS's preemption machinery already handles an accelerator that refuses
to *cede* the fabric (forcible reset after the preemption timeout, §4.2),
but nothing in the paper's prototype notices a guest whose circuit keeps
cycling without ever completing work — a hang loop burns its entire fair
share of accelerator time forever.  :class:`GuestWatchdog` closes that
gap: one simulated-time process per virtual accelerator samples the job's
progress counter every ``deadline_ps``; if the guest consumed fabric time
during the window yet reported no forward progress, the watchdog
**quarantines** it — the current process is forcibly reset through the
standard interrupt path and the vaccel is permanently excluded from the
runnable set, freeing its slot for well-behaved tenants.

Quarantine is deliberately one-way within a plan window (ISSUE 4's
self-healing invariant): a guest that hung once is assumed compromised and
never regains a slot.  The event is surfaced exactly where the paper puts
isolation violations — the per-socket auditor's counter bag — under the
``watchdog_quarantined`` key, so :meth:`HardwareMonitor.violation_counts`
aggregates hangs alongside fenced DMAs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Set

from repro.errors import ConfigurationError
from repro.hv.mdev import VAccelState, VirtualAccelerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor


class GuestWatchdog:
    """Stall detector + quarantine authority for one hypervisor."""

    def __init__(self, hypervisor: "OptimusHypervisor", deadline_ps: int) -> None:
        if deadline_ps <= 0:
            raise ConfigurationError("watchdog deadline must be positive")
        self.hypervisor = hypervisor
        self.engine = hypervisor.engine
        self.deadline_ps = deadline_ps
        self.quarantined: List[VirtualAccelerator] = []
        #: Quarantine log: one record per event, deterministic order.
        self.events: List[Dict[str, object]] = []
        self._watched: Set[int] = set()
        self._trace = self.engine.trace
        if self._trace is not None:
            self._trace_tid = self._trace.thread("hv.watchdog")

    # -- watching -----------------------------------------------------------------

    def watch(self, vaccel: VirtualAccelerator) -> None:
        """Start (idempotently) the watchdog process for one vaccel."""
        if vaccel.vaccel_id in self._watched:
            return
        self._watched.add(vaccel.vaccel_id)
        self.engine.spawn(self._watch(vaccel), name=f"watchdog.{vaccel.name}")

    def unwatch(self, vaccel: VirtualAccelerator) -> None:
        """Forget a torn-down vaccel; its process exits at its next poll."""
        self._watched.discard(vaccel.vaccel_id)

    def _watch(self, vaccel: VirtualAccelerator) -> Generator:
        job = vaccel.job
        while not job.done and not vaccel.quarantined:
            progress = job.progress_units()
            busy = vaccel.utilization.current_busy_ps()
            yield self.deadline_ps
            if job.done or vaccel.quarantined or vaccel.state is VAccelState.DETACHED:
                return
            consumed = vaccel.utilization.current_busy_ps() - busy
            # Stall = the guest held the fabric during the window yet its
            # progress counter never moved.  A merely *queued* guest (zero
            # fabric time) is starved, not hung — never quarantined.
            if vaccel.started and consumed > 0 and job.progress_units() <= progress:
                self.quarantine(vaccel)
                return

    # -- quarantine ---------------------------------------------------------------

    def quarantine(self, vaccel: VirtualAccelerator) -> None:
        """Preempt + permanently bench a stalled guest."""
        if vaccel.quarantined:
            return
        vaccel.quarantined = True
        self.quarantined.append(vaccel)
        self.events.append({
            "at_ps": self.engine.now,
            "vaccel": vaccel.name,
            "physical_index": vaccel.physical_index,
        })
        self._bump_violation(vaccel)
        if self._trace is not None:
            self._trace.instant("hv.watchdog.quarantine", self.engine.now,
                                tid=self._trace_tid, cat="fault",
                                args={"vaccel": vaccel.name})
        manager = self.hypervisor.physical[vaccel.physical_index]
        if manager.current is vaccel and manager.current_process is not None:
            # Scheduled: pull the reset line.  The process completes (with
            # None) at its next resume; the scheduling loop then routes
            # through ``_fail_current``, which finishes the job False.
            manager.current_process.interrupt()
        elif not vaccel.job.done:
            # Queued: no circuit to reset — end the job now.
            vaccel.finish(False)

    def _bump_violation(self, vaccel: VirtualAccelerator) -> None:
        monitor = getattr(self.hypervisor.platform, "monitor", None)
        if monitor is not None and vaccel.physical_index < len(monitor.auditors):
            auditor = monitor.auditors[vaccel.physical_index]
            auditor.counters.bump("watchdog_quarantined")
