"""Exception hierarchy for the OPTIMUS reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish simulation bugs (:class:`SimulationError`)
from modeled *architectural* faults (:class:`FaultError` subclasses), which
are legitimate, expected outcomes of some experiments (e.g. an accelerator
attempting a DMA outside its page-table slice).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """The simulation itself was misused (scheduling in the past, etc.)."""


class ConfigurationError(ReproError):
    """A component was built or wired with invalid parameters."""


class SynthesisError(ConfigurationError):
    """The synthesis model rejected a configuration (timing/resources)."""


class FaultError(ReproError):
    """Base class for modeled architectural faults."""


class TranslationFault(FaultError):
    """An address could not be translated by the MMU or IOMMU."""

    def __init__(self, address: int, space: str, reason: str = "") -> None:
        detail = f" ({reason})" if reason else ""
        super().__init__(f"translation fault at {address:#x} in {space}{detail}")
        self.address = address
        self.space = space
        self.reason = reason


class ProtectionFault(FaultError):
    """An access violated page permissions."""

    def __init__(self, address: int, access: str, space: str) -> None:
        super().__init__(f"{access} access denied at {address:#x} in {space}")
        self.address = address
        self.access = access
        self.space = space


class MmioFault(FaultError):
    """An MMIO access targeted an unmapped or out-of-range register."""


class GuestError(ReproError):
    """The guest driver or userspace library was misused."""


class SchedulerError(ReproError):
    """A temporal-multiplexing scheduler was misconfigured."""


class UnknownTenantError(ConfigurationError):
    """An eviction (or lookup) named a tenant the fleet does not hold.

    Subclasses :class:`ConfigurationError` so pre-existing callers that
    catch the broad class keep working; new callers — notably the failover
    re-placement path — catch this precisely.
    """

    def __init__(self, tenant: str, where: str) -> None:
        super().__init__(f"no tenant {tenant!r} {where}")
        self.tenant = tenant
        self.where = where


class FaultPlanError(ConfigurationError):
    """A fault-injection plan is malformed (unknown kind, unsorted, ...)."""


class WorkerDiedError(ReproError):
    """A ``--jobs`` pool worker process died before its sweep finished."""
