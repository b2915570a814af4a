"""OPTIMUS's core contribution: the hardware monitor and page table slicing.

Every public name loads its submodule on first use (PEP 562): the
pass-through baseline has no hardware monitor, so its processes never
load the auditors, the multiplexer tree or the VCU.
"""

import importlib

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "Auditor": "repro.core.auditor",
    "HardwareMonitor": "repro.core.monitor",
    "MuxNode": "repro.core.mux_tree",
    "MuxTree": "repro.core.mux_tree",
    "balanced_topology": "repro.core.mux_tree",
    "Slice": "repro.core.slicing",
    "SliceLayout": "repro.core.slicing",
    "default_layout": "repro.core.slicing",
    "ACCEL_PAGE_BYTES": "repro.core.vcu",
    "MGMT_PAGE_BYTES": "repro.core.vcu",
    "REG_ACCEL_SELECT": "repro.core.vcu",
    "REG_DISABLE": "repro.core.vcu",
    "REG_MAGIC": "repro.core.vcu",
    "REG_NUM_ACCELS": "repro.core.vcu",
    "REG_RESET": "repro.core.vcu",
    "REG_SLICE_BASE": "repro.core.vcu",
    "REG_WINDOW_BASE": "repro.core.vcu",
    "REG_WINDOW_SIZE": "repro.core.vcu",
    "VCU_MAGIC": "repro.core.vcu",
    "VirtualizationControlUnit": "repro.core.vcu",
    "accel_mmio_base": "repro.core.vcu",
}

__all__ = [
    "ACCEL_PAGE_BYTES",
    "Auditor",
    "HardwareMonitor",
    "MGMT_PAGE_BYTES",
    "MuxNode",
    "MuxTree",
    "REG_ACCEL_SELECT",
    "REG_DISABLE",
    "REG_MAGIC",
    "REG_NUM_ACCELS",
    "REG_RESET",
    "REG_SLICE_BASE",
    "REG_WINDOW_BASE",
    "REG_WINDOW_SIZE",
    "Slice",
    "SliceLayout",
    "VCU_MAGIC",
    "VirtualizationControlUnit",
    "accel_mmio_base",
    "balanced_topology",
    "default_layout",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
