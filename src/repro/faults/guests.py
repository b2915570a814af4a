"""Adversarial guest jobs for fault injection.

Two rogue tenants, each exercising a *different* defense layer:

* :class:`HangJob` — makes a little real progress, then burns cycles
  forever without advancing its progress counter.  The auditors see
  nothing wrong (it issues no illegal DMAs); only the per-guest
  **watchdog** (:mod:`repro.hv.watchdog`) catches it, because fabric time
  keeps accruing while ``progress_units()`` stands still.

* :class:`RunawayDmaJob` — endlessly probes far outside its registered
  DMA window (the existing ``ATTACK`` pattern from the isolation tests,
  §4.1).  The **auditor** fences every access (``dma_dropped_window``
  counts climb; reads resolve to ``None``), but the job keeps *issuing* —
  so its progress counter keeps moving and the watchdog correctly leaves
  it alone.  Fenced, not quarantined: the two defenses stay observable
  apart.

Both are preemptible at every iteration, so temporal multiplexing and the
forcible-reset path behave exactly as with honest guests.
"""

from __future__ import annotations

from typing import Generator

from repro.accel.base import AcceleratorJob, AcceleratorProfile, ExecutionContext
from repro.fpga.resources import ResourceFootprint

#: Register offsets (same layout as the isolation tests' probe job).
REG_TARGET = 0x00
REG_COUNT = 0x08

HANG_PROFILE = AcceleratorProfile(
    name="HANG",
    description="stalls forever after a short warm-up",
    loc_verilog=1,
    freq_mhz=400.0,
    footprint=ResourceFootprint(0.1, 0.0),
    max_outstanding=8,
    state_bytes=16,
)

RUNAWAY_PROFILE = AcceleratorProfile(
    name="RUNAWAY",
    description="issues DMAs far outside its registered window, forever",
    loc_verilog=1,
    freq_mhz=400.0,
    footprint=ResourceFootprint(0.1, 0.0),
    max_outstanding=8,
    state_bytes=16,
)


class HangJob(AcceleratorJob):
    """Reads a few lines, then spins without forward progress."""

    profile = HANG_PROFILE
    state_fields = (("_progress", "q"),)

    def __init__(self, *, warmup_reads: int = 4, spin_cycles: int = 256) -> None:
        super().__init__()
        self.warmup_reads = warmup_reads
        #: Short spin quantum: the job resumes often, so a watchdog
        #: interrupt (which lands at the next resume) takes effect fast.
        self.spin_cycles = spin_cycles
        self._progress = 0

    def body(self, ctx: ExecutionContext) -> Generator:
        base = self.reg(REG_TARGET)
        while self._progress < self.warmup_reads:
            yield ctx.read(base + 64 * self._progress)
            self._progress += 1
            if (yield from ctx.preempt_point()):
                return
        while True:  # the hang: cycles burn, progress never moves
            yield ctx.cycles(self.spin_cycles)
            if (yield from ctx.preempt_point()):
                return

    def progress_units(self) -> int:
        return self._progress



class RunawayDmaJob(AcceleratorJob):
    """Endless out-of-window probe: every DMA is fenced by the auditor."""

    profile = RUNAWAY_PROFILE
    state_fields = (("issued", "q"), ("fenced", "q"))

    #: How far beyond the window the probe aims (well past any slice).
    OVERSHOOT = 64 << 20

    def __init__(self, *, stride: int = 4096) -> None:
        super().__init__()
        self.stride = stride
        self.issued = 0
        self.fenced = 0

    def body(self, ctx: ExecutionContext) -> Generator:
        base = self.reg(REG_TARGET) + self.OVERSHOOT
        while True:
            data = yield ctx.read(base + self.stride * (self.issued % 1024))
            self.issued += 1
            if data is None:
                self.fenced += 1  # the auditor dropped it, as designed
            if (yield from ctx.preempt_point()):
                return

    def progress_units(self) -> int:
        # Issuing counts as progress: the circuit is busy (and fenced),
        # not hung — the watchdog must NOT quarantine it.
        return self.issued
