"""OPTIMUS reproduction: a hypervisor for shared-memory FPGA platforms.

This package reproduces the ASPLOS 2020 paper *"A Hypervisor for
Shared-Memory FPGA Platforms"* (Ma et al.) as a full-system, discrete-event
simulation: the Intel-HARP-like platform (CCI-P shell, UPI + PCIe links,
IOMMU with a 512-entry set-indexed IOTLB), the OPTIMUS hardware monitor
(VCU, multiplexer tree, auditors, page table slicing), the hypervisor
(trap-and-emulate MMIO, shadow paging, preemptive temporal multiplexing),
a guest driver/userspace stack, and the paper's fourteen benchmark
accelerators.

Quick start::

    from repro import OptimusHypervisor, PlatformParams, build_platform

    platform = build_platform(PlatformParams(), n_accelerators=2)
    hypervisor = OptimusHypervisor(platform)
    vm = hypervisor.create_vm("tenant0")
    ...

See ``examples/quickstart.py`` for a complete runnable walk-through, and
``DESIGN.md`` / ``EXPERIMENTS.md`` for the reproduction methodology.
"""

import importlib


def lazy_exports(namespace: dict, lazy: dict):
    """A package's PEP 562 ``__getattr__`` over its ``_LAZY`` table.

    ``lazy`` maps each public name to the submodule that defines it.  The
    first access imports that submodule and caches the value in
    ``namespace`` (the package's ``globals()``), so the hook never runs
    twice for a name; any other name raises ``AttributeError``.  Defined
    here, ahead of this file's imports, because every process loads this
    file first and subpackages import the helper while it is still
    initialising.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        module = lazy.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    return __getattr__


from repro.platform.builder import Platform, PlatformMode, build_platform
from repro.platform.params import PlatformParams

__version__ = "1.0.0"

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "OptimusHypervisor": "repro.hv.hypervisor",
    "PassthroughHypervisor": "repro.hv.passthrough",
}

__all__ = [
    "Platform",
    "PlatformMode",
    "PlatformParams",
    "build_platform",
    "__version__",
    *_LAZY,
]

__getattr__ = lazy_exports(globals(), _LAZY)
