"""Guest checkpoint/restore: the hv half of live migration.

OPTIMUS's own mechanisms already contain a migration protocol (§4, §5):
*quiesce* is one preemption (the job's minimal state lands in the guest's
own state buffer, §4.2); *snapshot* is a page-table walk (every backed
page, the state buffer among them) plus the vaccel's register cache,
window geometry and ``state_saved``; *restore* materializes the pages at
fixed GVAs on a fresh VM and replays the shadow-paging hypercall against
the new IOVA slice (§4.1, §5); *resume* is the destination's ordinary
``_switch_in``, which reads the state back from the rematerialized buffer.

:func:`checkpoint_guest` produces a frozen, picklable, digestible
:class:`GuestCheckpoint`, the unit the fleet ships between nodes and shard
workers; :func:`restore_guest` rebuilds it on any hypervisor with the same
page size.  The state buffer is hypervisor scratch (a preempted run fills
it, a never-preempted one leaves it zeroed), so :func:`guest_memory_digest`
takes explicit regions to compare application buffers only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DeadlineExceeded, GuestError, SchedulerError
from repro.hv.mdev import VirtualAccelerator
from repro.hv.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover
    from repro.hv.hypervisor import OptimusHypervisor


@dataclass(frozen=True)
class GuestCheckpoint:
    """Everything needed to rebuild one guest on another hypervisor.

    Plain ints/strings/bytes/tuples only: the object pickles across the
    sharded executor's process boundary and digests deterministically.
    """

    #: Guest identity and sizing.
    vm_name: str
    mem_bytes: int
    page_size: int
    #: The accelerator-library catalog key (``Tenant.accel_type``) and the
    #: keyword arguments the job was built with, sorted by name; the
    #: restoring provider builds the destination job from the two.
    accel_type: str
    job_kwargs: Tuple[Tuple[str, object], ...]
    #: DMA window geometry (BAR2-programmed, slice-relative on restore).
    window_base_gva: Optional[int]
    window_size: int
    state_buffer_gva: Optional[int]
    #: GVAs registered through the shadow-paging hypercall since the
    #: window was last written (all inside it), sorted.
    mapped_gvas: Tuple[int, ...]
    #: Every backed guest page: ``(gva, page bytes)``, sorted by GVA.
    pages: Tuple[Tuple[int, bytes], ...]
    #: Application registers cached at quiesce time, sorted by offset.
    reg_cache: Tuple[Tuple[int, int], ...]
    #: Runtime flags (``state_saved``: the state buffer among ``pages``
    #: holds the job's minimal architected state, §4.2).
    state_saved: bool
    started: bool
    done: bool
    quarantined: bool
    watchdog_armed: bool
    #: How a job that ended by raising failed (``"Type: message"``), or
    #: None: the exception itself may not pickle, its text does.
    failure: Optional[str] = None

    def digest(self) -> str:
        """Deterministic fingerprint of the full checkpoint contents."""
        h = hashlib.sha256()

        def put(tag: str, data: bytes) -> None:
            h.update(tag.encode())
            h.update(len(data).to_bytes(4, "little"))
            h.update(data)

        put("vm", self.vm_name.encode())
        put("type", self.accel_type.encode())
        if self.job_kwargs:
            put("kwargs", repr(self.job_kwargs).encode())
        for label, value in (
            ("mem", self.mem_bytes),
            ("psz", self.page_size),
            ("wbase", -1 if self.window_base_gva is None else self.window_base_gva),
            ("wsize", self.window_size),
            ("sbuf", -1 if self.state_buffer_gva is None else self.state_buffer_gva),
        ):
            put(label, str(value).encode())
        for gva in self.mapped_gvas:
            put("gva", str(gva).encode())
        for gva, data in self.pages:
            put(f"page{gva}", data)
        for offset, value in self.reg_cache:
            put(f"reg{offset}", str(value).encode())
        flags = (self.state_saved, self.started, self.done, self.quarantined,
                 self.watchdog_armed)
        put("flags", "".join("1" if f else "0" for f in flags).encode())
        if self.failure is not None:
            put("failure", self.failure.encode())
        return h.hexdigest()[:16]

    @property
    def n_pages(self) -> int:
        return len(self.pages)


def quiesce_guest(
    hypervisor: "OptimusHypervisor",
    vaccel: VirtualAccelerator,
    *,
    limit_ps: Optional[int] = None,
) -> None:
    """Stop ``vaccel`` at the next slice boundary via standard preemption.

    Withdraws the vaccel from its manager's run queue — the scheduling
    loop, which owns the socket, then context-switches it out through the
    ordinary protocol (drain in-flight DMAs, serialize state, cache
    registers, reset for isolation) — waits for the switch-out, and
    re-appends the vaccel so occupancy accounting is unchanged.  A vaccel
    that is merely QUEUED (or was never started) quiesces immediately.

    Raises :class:`~repro.errors.SchedulerError` if the guest fails to
    cede the fabric within ``limit_ps`` (default: four slice+timeout
    rounds), mirroring the forcible-reset deadline of §4.2.  If the
    scheduling loop dies meanwhile, its exception propagates instead.
    """
    manager = hypervisor.physical[vaccel.physical_index]
    removed = vaccel in manager.vaccels
    if removed:
        manager.vaccels.remove(vaccel)
    try:
        if vaccel.scheduled:
            engine = hypervisor.engine
            params = hypervisor.platform.params
            if limit_ps is None:
                limit_ps = engine.now + 4 * (
                    params.time_slice_ps + params.preemption_timeout_ps
                )
            try:
                engine.run_until(vaccel.switched_out(), limit_ps=limit_ps)
            except DeadlineExceeded as exc:
                raise SchedulerError(
                    f"{vaccel.name}: did not cede the fabric by {limit_ps} ps"
                ) from exc
    finally:
        if removed and vaccel not in manager.vaccels:
            manager.vaccels.append(vaccel)


def checkpoint_guest(
    hypervisor: "OptimusHypervisor",
    vaccel: VirtualAccelerator,
    *,
    accel_type: Optional[str] = None,
) -> GuestCheckpoint:
    """Quiesce ``vaccel`` and serialize the guest into a checkpoint.

    ``accel_type`` is the library catalog key the restoring side will use
    to build the destination job; it defaults to the job profile's name
    (which matches the catalog for every shipped accelerator).
    """
    quiesce_guest(hypervisor, vaccel)
    vm = vaccel.vm
    pages: List[Tuple[int, bytes]] = [
        (gva, vm.read_memory(gva, vm.page_size))
        for gva, _entry in vm.mmu.guest_table.mappings()
    ]
    watchdog = hypervisor.watchdog
    completion = vaccel.job.completion
    error = completion.exception() if completion.done() else None
    return GuestCheckpoint(
        vm_name=vm.name,
        mem_bytes=vm.mem_bytes,
        page_size=vm.page_size,
        accel_type=accel_type or vaccel.job.profile.name,
        job_kwargs=tuple(sorted(vaccel.job.job_kwargs.items())),
        window_base_gva=vaccel.window_base_gva,
        window_size=vaccel.window_size,
        state_buffer_gva=vaccel.state_buffer_gva,
        mapped_gvas=tuple(sorted(vaccel.mapped_gvas)),
        pages=tuple(pages),
        reg_cache=tuple(sorted(vaccel.reg_cache.items())),
        state_saved=vaccel.state_saved,
        started=vaccel.started,
        done=vaccel.job.done,
        quarantined=vaccel.quarantined,
        watchdog_armed=(
            watchdog is not None and vaccel.vaccel_id in watchdog._watched
        ),
        failure=None if error is None else f"{type(error).__name__}: {error}",
    )


def restore_guest(
    hypervisor: "OptimusHypervisor",
    checkpoint: GuestCheckpoint,
    job,
    *,
    physical_index: int = 0,
) -> Tuple[VirtualMachine, VirtualAccelerator]:
    """Rebuild a checkpointed guest on ``hypervisor``.

    Creates a fresh VM, materializes every checkpointed page at its
    original GVA, creates a mediated device on ``physical_index`` (which
    allocates a *new* IOVA slice), and replays the shadow-paging
    hypercall for every registered GVA — re-patching the sliced IO page
    table for the new slice.  A running guest resumes through the
    destination's ordinary switch-in, its state read from its own pages.
    A guest whose job raised at the source ends with a :class:`GuestError`
    naming that failure.
    """
    if checkpoint.page_size != hypervisor.page_size:
        raise ConfigurationError(
            f"checkpoint page size {checkpoint.page_size} != destination "
            f"hypervisor page size {hypervisor.page_size}"
        )
    vm = hypervisor.create_vm(checkpoint.vm_name, mem_bytes=checkpoint.mem_bytes)
    for gva, data in checkpoint.pages:
        vm.back_reserved_page(gva)
        vm.write_memory(gva, data)
    vaccel = hypervisor.create_virtual_accelerator(
        vm, job, physical_index=physical_index
    )
    vaccel.window_base_gva = checkpoint.window_base_gva
    if checkpoint.window_base_gva is not None and checkpoint.window_size:
        hypervisor.shadow.install_window(vaccel, checkpoint.window_size)
    for gva in checkpoint.mapped_gvas:
        hypervisor.shadow.map_page(vaccel, gva, vm.mmu.gva_to_gpa(gva))
    vaccel.reg_cache.update(dict(checkpoint.reg_cache))
    job.configure(vaccel.cached_registers())
    vaccel.state_buffer_gva = checkpoint.state_buffer_gva
    vaccel.state_saved = checkpoint.state_saved
    vaccel.quarantined = checkpoint.quarantined
    if checkpoint.failure is not None:
        vaccel.finish(GuestError(f"{vm.name}: job failed at the source: {checkpoint.failure}"))
    elif checkpoint.done:
        # A quarantined guest ended False, as the watchdog ends it.
        vaccel.finish(not checkpoint.quarantined)
    elif checkpoint.started and not checkpoint.quarantined:
        # Resume: migration is one preemption plus one switch-in elsewhere.
        vaccel.started = True
        hypervisor.physical[physical_index].start()
    return vm, vaccel


def guest_memory_digest(
    vm: VirtualMachine,
    regions: Optional[Sequence[Tuple[int, int]]] = None,
) -> str:
    """Digest of guest memory contents, keyed by GVA.

    With ``regions`` (a list of ``(gva, size)``), digests exactly those
    byte ranges — the application-visible comparison, excluding
    hypervisor scratch such as the preemption state buffer.  Without, it
    digests every backed page (includes the state buffer, so a migrated
    and a never-migrated run will legitimately differ there).
    """
    h = hashlib.sha256()
    if regions is None:
        for gva, _entry in vm.mmu.guest_table.mappings():
            h.update(gva.to_bytes(8, "little"))
            h.update(vm.read_memory(gva, vm.page_size))
    else:
        for gva, size in regions:
            h.update(gva.to_bytes(8, "little"))
            h.update(vm.read_memory(gva, size))
    return h.hexdigest()
