"""Single-platform chaos: a fault plan against one OPTIMUS stack.

The fleet injector (:mod:`repro.faults.injector`) exercises the
*cluster*'s self-healing; this module drives the same declarative plans
into one hypervisor so the **device-level** defenses are observable in
isolation:

* ``guest_hang``   -> a :class:`~repro.faults.guests.HangJob` tenant; the
  per-guest watchdog (:mod:`repro.hv.watchdog`) quarantines it and the
  victim reclaims the fabric;
* ``guest_runaway_dma`` -> a :class:`~repro.faults.guests.RunawayDmaJob`
  tenant; the auditor fences every access (``dma_dropped_window``);
* ``link_degrade`` / ``link_restore`` / ``iotlb_thrash`` -> bandwidth
  faults on the platform's CPU-FPGA links;
* ``node_crash`` / ``node_recover`` -> fleet-scope, recorded as ``noop``.

Everything runs in simulated time with one seeded RNG, so a (plan, seed)
pair produces a byte-identical report on every run — the chaos CLI and
the fuzzer's ``platform`` kind byte-compare exactly this dict.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.harness import make_stack
from repro.faults.guests import REG_TARGET, HangJob, RunawayDmaJob
from repro.faults.injector import FaultLog, FaultRecord
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import ms
from repro.sim.rng import LegacyRandomState


class SinglePlatformChaos:
    """Replays a :class:`FaultPlan` against one OPTIMUS stack."""

    def __init__(
        self,
        plan: FaultPlan,
        *,
        params: Optional[PlatformParams] = None,
        n_accelerators: int = 2,
        watchdog_deadline_ps: int = ms(2),
        working_set: int = 8 * MB,
        victim: str = "MB",
    ) -> None:
        self.plan = plan
        self.stack = make_stack(
            "optimus", params, n_accelerators=n_accelerators
        )
        self.hypervisor = self.stack.hypervisor
        self.engine = self.stack.platform.engine
        self.n_accelerators = n_accelerators
        self.watchdog = self.hypervisor.enable_watchdog(watchdog_deadline_ps)
        # "MB" saturates the link (bandwidth victim); "LL" is latency-bound
        # with ~20x fewer simulated packets — the choice for quick runs.
        self.victim = self.stack.launch(
            victim, physical_index=0, working_set=working_set
        )
        self.log = FaultLog(plan)
        self.rng = LegacyRandomState(plan.seed)
        self.rogues: List[Tuple[str, object, object]] = []

    # -- rogue tenants -----------------------------------------------------------

    def _slot_for(self, event: FaultEvent) -> int:
        """``"auto"`` draws a seeded slot; ``"slotN"`` pins one."""
        if event.target == "auto":
            return self.rng.randint(self.n_accelerators)
        if event.target.startswith("slot"):
            return int(event.target[len("slot"):]) % self.n_accelerators
        return 0

    def _launch_rogue(self, job, slot: int, label: str):
        vm = self.hypervisor.create_vm(f"{label}{len(self.rogues)}")
        handle = self.hypervisor.connect(
            vm, job, physical_index=slot, window_bytes=16 * MB
        )
        handle.alloc_buffer(4096)
        handle.mmio_write(REG_TARGET, handle.vaccel.window_base_gva or 0)
        handle.start()
        self.rogues.append((label, job, handle))
        return handle

    # -- per-event application ----------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        now = self.engine.now
        kind = event.kind
        if kind is FaultKind.GUEST_HANG:
            slot = self._slot_for(event)
            self._launch_rogue(HangJob(), slot, "hang")
            target, outcome, details = f"slot{slot}", "hang_launched", {}
        elif kind is FaultKind.GUEST_RUNAWAY_DMA:
            slot = self._slot_for(event)
            self._launch_rogue(RunawayDmaJob(), slot, "runaway")
            target, outcome, details = f"slot{slot}", "runaway_launched", {}
        elif kind is FaultKind.LINK_DEGRADE:
            factor = event.param("factor", 4.0)
            for link in self.stack.platform.links:
                link.degrade(factor)
            target, outcome, details = "links", "degraded", {"factor": factor}
        elif kind is FaultKind.LINK_RESTORE:
            for link in self.stack.platform.links:
                link.restore()
            target, outcome, details = "links", "restored", {}
        elif kind is FaultKind.IOTLB_THRASH:
            factor = event.param("factor", 2.0)
            span_ps = int(event.param("span_ps", ms(5)))
            for link in self.stack.platform.links:
                link.degrade(factor)
            restore = FaultEvent(
                at_ps=now + span_ps, kind=FaultKind.LINK_RESTORE, target="links"
            )
            self.engine.call_at(restore.at_ps, lambda: self._apply(restore))
            target, outcome = "links", "thrashing"
            details = {"factor": factor, "span_ps": span_ps}
        else:  # node crash/recover only mean something to a fleet
            target, outcome = event.target, "noop"
            details = {"reason": "fleet-scope fault"}
        self.log.add(FaultRecord(
            at_ps=now,
            kind=kind.value,
            target=target,
            outcome=outcome,
            details=details,
        ))

    # -- the run -------------------------------------------------------------------

    def run(self, window_ps: int = ms(30)) -> Dict[str, object]:
        for event in self.plan.events:
            self.engine.call_at(
                event.at_ps, lambda event=event: self._apply(event)
            )
        self.stack.run_for(window_ps)
        return self.report(window_ps)

    def report(self, window_ps: int) -> Dict[str, object]:
        rogue_rows = []
        for label, job, handle in self.rogues:
            rogue_rows.append({
                "label": label,
                "vaccel": handle.vaccel.name,
                "slot": handle.vaccel.physical_index,
                "progress_units": job.progress_units(),
                "quarantined": handle.vaccel.quarantined,
            })
        return {
            "plan": self.plan.name,
            "plan_seed": self.plan.seed,
            "plan_digest": self.plan.digest(),
            "window_ps": window_ps,
            "victim_progress_units": self.victim.progress(),
            "violations": self.stack.platform.monitor.violation_counts(),
            "watchdog": {
                "deadline_ps": self.watchdog.deadline_ps,
                "quarantined": [va.name for va in self.watchdog.quarantined],
                "events": list(self.watchdog.events),
            },
            "rogues": rogue_rows,
            "fault_log": self.log.summary(),
        }


def run_single_chaos(
    plan: FaultPlan,
    *,
    params: Optional[PlatformParams] = None,
    n_accelerators: int = 2,
    window_ps: int = ms(30),
    watchdog_deadline_ps: int = ms(2),
    working_set: int = 8 * MB,
    victim: str = "MB",
) -> Dict[str, object]:
    """One-shot convenience wrapper used by the chaos CLI and tests."""
    chaos = SinglePlatformChaos(
        plan,
        params=params,
        n_accelerators=n_accelerators,
        watchdog_deadline_ps=watchdog_deadline_ps,
        working_set=working_set,
        victim=victim,
    )
    return chaos.run(window_ps)
