"""The OPTIMUS hypervisor and its baselines.

Every public name loads its submodule on first use (PEP 562): a
pass-through process loads neither the OPTIMUS hypervisor nor its
scheduling, shadow paging, preemption, checkpoint or migration layers.
"""

from repro import lazy_exports

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

__all__ = list(_LAZY)

__getattr__ = lazy_exports(globals(), _LAZY)
