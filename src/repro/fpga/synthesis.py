"""The synthesis model: replication scaling, timing feasibility, placement.

Two questions from the paper are answered here:

1. **Table 2 / §6.2** — what does a design cost when replicated N times?
   Routing pressure makes normal designs slightly super-linear; very simple
   designs go sub-linear (MemBench: ~6x at 8 instances) or even *negative*
   (LinkedList: replication lets the optimizer shrink shared shell logic).

2. **§5 "Multiplexer Tree Hierarchy" / §7.2** — which multiplexer
   arrangements close timing at 400 MHz?  A flat 8-way multiplexer cannot
   (AmorphOS used one, but at lower frequency); a binary tree can, at the
   cost of ~33 ns per level.  The model exposes the same trade-off and is
   exercised by the mux-tree ablation benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import SynthesisError
from repro.fpga.resources import (
    MUX_NODE_FOOTPRINT,
    SHELL_FOOTPRINT,
    ResourceFootprint,
    SynthesisCharacter,
    monitor_footprint,
)

#: Routing-congestion coefficient for NORMAL designs: each extra replica adds
#: this fraction of the base cost again (calibrated to Table 2's AES/SHA rows,
#: which land within a few percent of 8x the pass-through number).
CONGESTION_PER_REPLICA = 0.004

#: SIMPLE designs pack at this fraction of linear cost when replicated
#: (Table 2: MemBench uses "6x the number of ALMs" at 8 instances).
SIMPLE_PACKING = 0.75

#: TRIVIAL designs shrink shared logic: net ALM credit per extra replica
#: (Table 2's LinkedList row reports -0.24% total at 8 instances vs 0.15%
#: for one: 8 x 0.15 - 7 x 0.206 = -0.24).
TRIVIAL_CREDIT_PCT = 0.206

#: Highest frequency a flat multiplexer of given radix can close, in MHz.
#: A flat 8:1 mux tops out well below the 400 MHz the shell requires — the
#: reason OPTIMUS "must provide a multiplexer tree by default" (§3).
def flat_mux_fmax_mhz(radix: int) -> float:
    if radix < 2:
        raise SynthesisError("a multiplexer needs at least two inputs")
    # Empirical shape: each doubling of fan-in costs ~30% of achievable fmax.
    return 550.0 / (1.0 + 0.45 * (math.log2(radix) - 1.0))


def replicated_footprint(
    base: ResourceFootprint,
    instances: int,
    character: SynthesisCharacter,
) -> ResourceFootprint:
    """Cost of ``instances`` copies of a design, per its synthesis regime."""
    if instances < 1:
        raise SynthesisError("need at least one instance")
    if instances == 1:
        return base
    if character is SynthesisCharacter.NORMAL:
        factor = instances * (1.0 + CONGESTION_PER_REPLICA * (instances - 1))
        return base * factor
    if character is SynthesisCharacter.SIMPLE:
        return base * (instances * SIMPLE_PACKING)
    # TRIVIAL: linear replication minus a shared-logic optimization credit
    # that can push the *delta* negative, as Table 2 shows for LinkedList.
    linear = base * instances
    credit = TRIVIAL_CREDIT_PCT * (instances - 1)
    return ResourceFootprint(alm_pct=linear.alm_pct - credit, bram_pct=linear.bram_pct)


@dataclass(frozen=True)
class MuxArrangement:
    """A multiplexer hierarchy: ``levels`` layers of radix-``radix`` nodes."""

    radix: int
    levels: int

    @property
    def node_count(self) -> int:
        # A full r-ary tree with r^levels leaves has (r^levels - 1)/(r - 1) nodes.
        return (self.radix**self.levels - 1) // (self.radix - 1)

    def fmax_mhz(self) -> float:
        """Achievable frequency: governed by the widest (single-node) fan-in."""
        return flat_mux_fmax_mhz(self.radix)


def plan_mux_tree(n_accelerators: int, radix: int, target_mhz: float) -> MuxArrangement:
    """Choose the shallowest arrangement that fits N accelerators at fmax.

    Raises :class:`SynthesisError` if no arrangement of this radix closes
    timing — e.g. a flat (single-level) radix-8 mux at 400 MHz.
    """
    if n_accelerators < 1:
        raise SynthesisError("need at least one accelerator")
    levels = max(1, math.ceil(math.log(max(n_accelerators, 2), radix)))
    arrangement = MuxArrangement(radix=radix, levels=levels)
    if arrangement.fmax_mhz() < target_mhz:
        raise SynthesisError(
            f"radix-{radix} multiplexer cannot close timing at {target_mhz:.0f} MHz "
            f"(fmax {arrangement.fmax_mhz():.0f} MHz); use a deeper, narrower tree"
        )
    return arrangement


@dataclass
class SynthesisReport:
    """The outcome of placing a full OPTIMUS configuration on the FPGA."""

    shell: ResourceFootprint
    monitor: ResourceFootprint
    accelerators: ResourceFootprint
    arrangement: MuxArrangement

    @property
    def total(self) -> ResourceFootprint:
        return self.shell + self.monitor + self.accelerators

    @property
    def fits(self) -> bool:
        return self.total.alm_pct <= 100.0 and self.total.bram_pct <= 100.0


def synthesize(
    accel_footprints: Sequence[ResourceFootprint],
    accel_characters: Sequence[SynthesisCharacter],
    *,
    mux_radix: int = 2,
    target_mhz: float = 400.0,
    max_accelerators: int = 8,
    with_monitor: bool = True,
) -> SynthesisReport:
    """Synthesize shell + (optionally) monitor + accelerators; check fit.

    ``accel_footprints`` lists the single-instance footprint of each slot;
    homogeneous configurations pass the same footprint N times and benefit
    from the replication model.
    """
    n = len(accel_footprints)
    if n < 1:
        raise SynthesisError("no accelerators to synthesize")
    if n > max_accelerators:
        raise SynthesisError(
            f"{n} accelerators exceed the platform limit of {max_accelerators} "
            "at 400 MHz (the synthesizer cannot place more without lowering "
            "the multiplexer tree frequency, §5)"
        )

    if with_monitor:
        arrangement = plan_mux_tree(n, mux_radix, target_mhz)
        monitor = monitor_footprint(n, arrangement.node_count)
    else:
        if n != 1:
            raise SynthesisError("pass-through supports exactly one accelerator")
        arrangement = MuxArrangement(radix=2, levels=0)
        monitor = ResourceFootprint(0.0, 0.0)

    # Group identical designs so replication effects apply.
    groups: List[tuple[ResourceFootprint, SynthesisCharacter, int]] = []
    for footprint, character in zip(accel_footprints, accel_characters):
        for index, (g_fp, g_ch, count) in enumerate(groups):
            if g_fp == footprint and g_ch == character:
                groups[index] = (g_fp, g_ch, count + 1)
                break
        else:
            groups.append((footprint, character, 1))

    accel_total = ResourceFootprint(0.0, 0.0)
    for footprint, character, count in groups:
        accel_total = accel_total + replicated_footprint(footprint, count, character)

    report = SynthesisReport(
        shell=SHELL_FOOTPRINT,
        monitor=monitor,
        accelerators=accel_total,
        arrangement=arrangement,
    )
    if not report.fits:
        raise SynthesisError(
            f"design does not fit: ALM {report.total.alm_pct:.2f}%, "
            f"BRAM {report.total.bram_pct:.2f}%"
        )
    return report
