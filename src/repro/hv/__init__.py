"""The OPTIMUS hypervisor and its baselines.

Every public name loads its submodule on first use (PEP 562): a
pass-through process loads neither the OPTIMUS hypervisor nor its
scheduling, shadow paging, preemption, checkpoint or migration layers.
"""

import importlib

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "GuestCheckpoint": "repro.hv.checkpoint",
    "checkpoint_guest": "repro.hv.checkpoint",
    "guest_memory_digest": "repro.hv.checkpoint",
    "quiesce_guest": "repro.hv.checkpoint",
    "restore_guest": "repro.hv.checkpoint",
    "OptimusHypervisor": "repro.hv.hypervisor",
    "BAR2_MAP_GPA": "repro.hv.mdev",
    "BAR2_MAP_GVA": "repro.hv.mdev",
    "BAR2_SLICE_BASE": "repro.hv.mdev",
    "BAR2_STATE_BUF": "repro.hv.mdev",
    "BAR2_WINDOW_SIZE": "repro.hv.mdev",
    "VAccelState": "repro.hv.mdev",
    "VirtualAccelerator": "repro.hv.mdev",
    "migrate": "repro.hv.migration",
    "PassthroughHypervisor": "repro.hv.passthrough",
    "PhysicalAccelerator": "repro.hv.preemption",
    "PriorityScheduler": "repro.hv.scheduler",
    "RoundRobinScheduler": "repro.hv.scheduler",
    "SchedulingPolicy": "repro.hv.scheduler",
    "WeightedScheduler": "repro.hv.scheduler",
    "ShadowPager": "repro.hv.shadow",
    "VirtualMachine": "repro.hv.vm",
}

__all__ = [
    "BAR2_MAP_GPA",
    "BAR2_MAP_GVA",
    "BAR2_SLICE_BASE",
    "BAR2_STATE_BUF",
    "BAR2_WINDOW_SIZE",
    "GuestCheckpoint",
    "OptimusHypervisor",
    "PassthroughHypervisor",
    "checkpoint_guest",
    "guest_memory_digest",
    "migrate",
    "quiesce_guest",
    "restore_guest",
    "PhysicalAccelerator",
    "PriorityScheduler",
    "RoundRobinScheduler",
    "SchedulingPolicy",
    "ShadowPager",
    "VAccelState",
    "VirtualAccelerator",
    "VirtualMachine",
    "WeightedScheduler",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
