"""FPGA substrate: shell, AFU sockets, resource and synthesis models."""

from repro.fpga.afu import AfuSocket, DmaEngine, RegisterFile
from repro.fpga.resources import (
    AUDITOR_FOOTPRINT,
    MUX_NODE_FOOTPRINT,
    SHELL_FOOTPRINT,
    VCU_FOOTPRINT,
    ResourceFootprint,
    SynthesisCharacter,
    monitor_footprint,
)
from repro.fpga.shell import OPTIMUS_MAGIC, SHELL_MMIO_BYTES, Shell
from repro.fpga.synthesis import (
    MuxArrangement,
    SynthesisReport,
    flat_mux_fmax_mhz,
    plan_mux_tree,
    replicated_footprint,
    synthesize,
)

__all__ = [
    "AUDITOR_FOOTPRINT",
    "AfuSocket",
    "DmaEngine",
    "MUX_NODE_FOOTPRINT",
    "MuxArrangement",
    "OPTIMUS_MAGIC",
    "RegisterFile",
    "ResourceFootprint",
    "SHELL_FOOTPRINT",
    "SHELL_MMIO_BYTES",
    "Shell",
    "SynthesisCharacter",
    "SynthesisReport",
    "VCU_FOOTPRINT",
    "flat_mux_fmax_mhz",
    "monitor_footprint",
    "plan_mux_tree",
    "replicated_footprint",
    "synthesize",
]
