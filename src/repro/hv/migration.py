"""Virtual-accelerator migration (§7.1).

The paper notes that, because OPTIMUS supports acceleration preemption,
"OPTIMUS's virtual accelerators can theoretically be migrated in the
event that a cloud provider wishes to alter an FPGA configuration."
This module makes that concrete: :func:`migrate` moves a virtual
accelerator between physical accelerators *of the same circuit type*
using nothing but the existing preemption machinery.

The key enabler is page table slicing itself: a virtual accelerator's
IOVA slice — and therefore every IO-page-table entry backing its DMA
window — is independent of which physical accelerator it runs on.  A
migration is exactly one preemption plus one offset-table programming on
the destination:

1. preempt the job on the source (drain, save minimal state to the
   guest's buffer, reset for isolation);
2. detach from the source manager, attach to the destination;
3. the destination's scheduler restores the cached application registers,
   programs its auditor with the *same* window/slice values, reloads the
   saved state, and resumes.

No IO page table entries move, no guest memory is copied, and the guest
never observes more than a scheduling gap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import ConfigurationError, SchedulerError
from repro.hv.mdev import VirtualAccelerator
from repro.sim.engine import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor


def migrate(
    hypervisor: "OptimusHypervisor",
    vaccel: VirtualAccelerator,
    destination_index: int,
) -> Future:
    """Move ``vaccel`` to another physical accelerator; returns a future.

    The future resolves once the virtual accelerator is attached (and, if
    it was running, queued for scheduling) at the destination.  Raises
    immediately on invalid destinations; same-type checking uses the job's
    profile name, mirroring the provider constraint that a physical slot
    must carry the right circuit.
    """
    if not 0 <= destination_index < len(hypervisor.physical):
        raise ConfigurationError(f"no physical accelerator {destination_index}")
    if destination_index == vaccel.physical_index:
        raise ConfigurationError("vaccel already lives on that physical accelerator")
    source = hypervisor.physical[vaccel.physical_index]
    destination = hypervisor.physical[destination_index]
    for resident in destination.vaccels:
        if resident.job.profile.name != vaccel.job.profile.name:
            raise SchedulerError(
                "destination accelerator carries a different circuit "
                f"({resident.job.profile.name} != {vaccel.job.profile.name})"
            )

    return hypervisor.engine.spawn(
        _migration_body(vaccel, source, destination), name=f"migrate.{vaccel.name}"
    ).completion


def _migration_body(vaccel: VirtualAccelerator, source, destination) -> Generator:
    # 1. Withdraw the vaccel from the source's run queue.  If it is
    #    currently scheduled, the source's scheduling loop preempts it via
    #    the standard protocol at the next slice boundary (the loop owns
    #    the socket; migrating around it would race the state machine).
    #    An unscheduled vaccel waits for nothing, not even a zero-delay
    #    event.
    if vaccel in source.vaccels:
        source.vaccels.remove(vaccel)
    if vaccel.scheduled:
        yield vaccel.switched_out()

    # 2. Reattach at the destination.  The slice, the IOPT entries and the
    #    cached registers travel with the vaccel object, the saved state
    #    stays in the guest's buffer — nothing else moves.
    vaccel.physical_index = destination.socket_index
    destination.vaccels.append(vaccel)
    vaccel.migrations += 1
    if vaccel.started and not vaccel.job.done:
        destination.start()
    return True
