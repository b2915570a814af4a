"""FPGA resource accounting (ALMs and BRAM).

Table 2 of the paper reports utilization as a percentage of the Arria 10's
total Adaptive Logic Modules and Block RAM, so this model works directly
in percentage points.  A :class:`ResourceFootprint` is attached to the
shell, to each hardware-monitor component, and to each benchmark
accelerator (single-instance, pass-through column of Table 2); the
synthesis model (:mod:`repro.fpga.synthesis`) scales instance counts and
adds routing effects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ResourceFootprint:
    """Utilization of one component, in percent of device totals."""

    alm_pct: float
    bram_pct: float

    def __add__(self, other: "ResourceFootprint") -> "ResourceFootprint":
        return ResourceFootprint(self.alm_pct + other.alm_pct, self.bram_pct + other.bram_pct)

    def __mul__(self, factor: float) -> "ResourceFootprint":
        return ResourceFootprint(self.alm_pct * factor, self.bram_pct * factor)

    __rmul__ = __mul__


class SynthesisCharacter(enum.Enum):
    """How a design behaves when replicated, per Table 2's three regimes.

    * NORMAL  — replication costs slightly more than N x (routing pressure:
      "the synthesizer must consume extra resources in order to route
      signals ... under timing requirements").
    * SIMPLE  — small designs the optimizer packs efficiently (MemBench
      "only uses 6x the number of ALMs" at 8 instances).
    * TRIVIAL — designs so small that replicating them lets the synthesizer
      optimize *shared shell logic*, yielding a net decrease (LinkedList's
      negative ALM delta in Table 2).
    """

    NORMAL = "normal"
    SIMPLE = "simple"
    TRIVIAL = "trivial"


# Fixed platform components (Table 2, identical in PT and OPTIMUS columns).
SHELL_FOOTPRINT = ResourceFootprint(alm_pct=23.44, bram_pct=6.57)

# Hardware-monitor decomposition.  Table 2 reports the assembled monitor for
# 8 accelerators at 6.16% ALM / 0.48% BRAM; we split that among the VCU,
# 8 auditors, and the 7 nodes of a 3-level binary tree so that differently
# sized monitors (ablations) are costed consistently.
VCU_FOOTPRINT = ResourceFootprint(alm_pct=1.00, bram_pct=0.30)
AUDITOR_FOOTPRINT = ResourceFootprint(alm_pct=0.40, bram_pct=0.0225)
MUX_NODE_FOOTPRINT = ResourceFootprint(alm_pct=0.28, bram_pct=0.0)


def monitor_footprint(n_accelerators: int, mux_nodes: int) -> ResourceFootprint:
    """Total hardware-monitor footprint for a given configuration."""
    if n_accelerators < 1 or mux_nodes < 0:
        raise ConfigurationError("invalid monitor configuration")
    return (
        VCU_FOOTPRINT
        + n_accelerators * AUDITOR_FOOTPRINT
        + mux_nodes * MUX_NODE_FOOTPRINT
    )

