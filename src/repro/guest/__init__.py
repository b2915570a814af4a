"""Guest-side stack: FPGA driver and userspace library.

Every public name loads its submodule on first use (PEP 562).
"""

from repro import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "GuestAccelerator": "repro.guest.api",
    "NativeAccelerator": "repro.guest.api",
    "GuestFpgaDriver": "repro.guest.driver",
}

__all__ = list(_LAZY)

__getattr__ = lazy_exports(globals(), _LAZY)
