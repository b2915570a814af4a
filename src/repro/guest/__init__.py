"""Guest-side stack: FPGA driver and userspace library.

Every public name loads its submodule on first use (PEP 562).
"""

import importlib

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "GuestAccelerator": "repro.guest.api",
    "NativeAccelerator": "repro.guest.api",
    "GuestFpgaDriver": "repro.guest.driver",
}

__all__ = ["GuestAccelerator", "GuestFpgaDriver", "NativeAccelerator"]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
