"""Guest checkpoint/restore: the hv half of live migration (ISSUE 8).

OPTIMUS's own mechanisms already contain everything a migration protocol
needs (ROADMAP, §4/§5 of the paper):

* **quiesce** — preemptive temporal multiplexing stops a guest at a slice
  boundary and serializes its minimal architected state into the guest's
  own DRAM state buffer (§4.2);
* **snapshot** — the guest's address space is a plain page table walk
  (every backed page is readable through host DRAM), and the vaccel
  carries the register cache, the DMA window geometry, and the saved
  state blob;
* **restore** — ``back_reserved_page`` materializes pages at *fixed* GVAs
  on a fresh VM, so the destination guest sees the identical address
  space, and replaying the shadow-paging hypercall re-patches the sliced
  IO page table against the destination's IOVA slice (§4.1, §5);
* **resume** — the destination scheduler's ordinary ``_switch_in`` path
  replays cached registers, programs the auditor's offset table for the
  *new* slice, and restores the saved state — restore is literally one
  context-switch-in on another hypervisor.

:func:`checkpoint_guest` produces a :class:`GuestCheckpoint`: a frozen,
picklable, deterministically digestible value object — the unit the fleet
ships between nodes (and, in sharded execution, between worker
processes).  :func:`restore_guest` rebuilds the guest on any hypervisor
with the same page size.

The state buffer page is hypervisor scratch: a migrated run spills the
preemption state into it while a never-preempted run leaves it zeroed, so
application-level digest comparisons (:func:`guest_memory_digest`) accept
explicit regions to scope the comparison to application buffers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SchedulerError
from repro.hv.mdev import VAccelState, VirtualAccelerator
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
    #: The accelerator-library catalog key (``Tenant.accel_type``); the
    #: restoring provider uses it to instantiate the destination job.
    accel_type: str
    #: DMA window geometry (BAR2-programmed, slice-relative on restore).
    window_base_gva: Optional[int]
    window_size: int
    state_buffer_gva: Optional[int]
    #: GVAs registered through the shadow-paging hypercall that lie
    #: inside the DMA window, sorted.
    mapped_gvas: Tuple[int, ...]
    #: Every backed guest page: ``(gva, page bytes)``, sorted by GVA.
    pages: Tuple[Tuple[int, bytes], ...]
    #: Application registers cached at quiesce time, sorted by offset.
    reg_cache: Tuple[Tuple[int, int], ...]
    #: The job's minimal architected state (§4.2), or None if never saved.
    saved_state: Optional[bytes]
    #: Runtime flags.
    started: bool
    done: bool
    quarantined: bool
    watchdog_armed: bool

    def digest(self) -> str:
        """Deterministic fingerprint of the full checkpoint contents."""
        h = hashlib.sha256()

        def put(tag: str, data: bytes) -> None:
            h.update(tag.encode())
            h.update(len(data).to_bytes(4, "little"))
            h.update(data)

        put("vm", self.vm_name.encode())
        put("type", self.accel_type.encode())
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
        put("state", self.saved_state if self.saved_state is not None else b"\xff")
        flags = (self.started, self.done, self.quarantined, self.watchdog_armed)
        put("flags", "".join("1" if f else "0" for f in flags).encode())
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
    rounds), mirroring the forcible-reset deadline of §4.2.
    """
    manager = hypervisor.physical[vaccel.physical_index]
    removed = vaccel in manager.vaccels
    if removed:
        manager.vaccels.remove(vaccel)
    try:
        if vaccel.state is VAccelState.SCHEDULED:
            engine = hypervisor.engine
            params = hypervisor.platform.params
            if limit_ps is None:
                limit_ps = engine.now + 4 * (
                    params.time_slice_ps + params.preemption_timeout_ps
                )
            done = engine.future()

            def _poll() -> Generator:
                while vaccel.state is VAccelState.SCHEDULED:
                    yield 50_000_000  # poll every 50 us for the switch-out
                done.set_result(True)

            engine.spawn(_poll(), name=f"quiesce.{vaccel.name}")
            engine.run_until(done, limit_ps=limit_ps)
            if vaccel.state is VAccelState.SCHEDULED:
                raise SchedulerError(
                    f"{vaccel.name}: did not cede the fabric by {limit_ps} ps"
                )
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
    base, size = vaccel.window_base_gva, vaccel.window_size
    return GuestCheckpoint(
        vm_name=vm.name,
        mem_bytes=vm.mem_bytes,
        page_size=vm.page_size,
        accel_type=accel_type or vaccel.job.profile.name,
        window_base_gva=base,
        window_size=size,
        state_buffer_gva=vaccel.state_buffer_gva,
        # A GVA a shrunk window stranded is unreachable (the auditor drops
        # DMA outside the window), so the checkpoint leaves it behind.
        mapped_gvas=tuple(sorted(
            gva for gva in vaccel.mapped_gvas if base <= gva < base + size
        )),
        pages=tuple(pages),
        reg_cache=tuple(sorted(vaccel.reg_cache.items())),
        saved_state=vaccel.saved_state,
        started=vaccel.started,
        done=vaccel.job.done,
        quarantined=vaccel.quarantined,
        watchdog_armed=(
            watchdog is not None and vaccel.vaccel_id in watchdog._watched
        ),
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
    table for the new slice.  If the guest was running, the destination
    scheduler resumes it through the ordinary context-switch-in path
    (cached registers + saved state travel on the vaccel).
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
    vaccel.saved_state = checkpoint.saved_state
    vaccel.quarantined = checkpoint.quarantined
    if checkpoint.done:
        job.done = True
        vaccel.state = VAccelState.DONE
    elif checkpoint.started and not checkpoint.quarantined:
        # Resume: mark runnable and kick the destination scheduler; its
        # _switch_in replays registers, programs the new slice's offset
        # table, and restores the saved state (§4.2 — migration is one
        # preemption plus one switch-in elsewhere).
        vaccel.started = True
        hypervisor.physical[physical_index].start()
    return vm, vaccel


class IncrementalCheckpointer:
    """Cheap per-guest checkpoint reuse for the speculation path.

    A full :func:`checkpoint_guest` reads every backed page; a fleet
    guest that has not changed since the last snapshot produces the
    identical checkpoint.  This cache keys each guest's checkpoint on a
    cheap *validity token* — every structural input to the checkpoint
    that can change without a page read — and recomputes only when the
    token moves.

    Scope: the sharded executor's **worker speculation path only**.  The
    serial/migration path keeps calling :func:`checkpoint_guest`
    directly, so envelope-visible digests can never come out of a cache.
    The token deliberately includes ``vaccel_id`` (never reused) rather
    than ``vm_name`` (reused across migrations of the same tenant).
    """

    def __init__(self) -> None:
        self._cache: dict = {}

    @staticmethod
    def _token(hypervisor: "OptimusHypervisor", vaccel: VirtualAccelerator):
        return (
            vaccel.vaccel_id,
            vaccel.state,
            vaccel.started,
            vaccel.saved_state is None,
            len(vaccel.mapped_gvas),
            vaccel.window_base_gva,
            vaccel.window_size,
            vaccel.state_buffer_gva,
            len(vaccel.reg_cache),
            vaccel.job.done,
            vaccel.vm.mmu.guest_table.version,
        )

    def checkpoint(
        self,
        hypervisor: "OptimusHypervisor",
        vaccel: VirtualAccelerator,
        *,
        accel_type: Optional[str] = None,
        fresh: bool = False,
    ) -> GuestCheckpoint:
        """A checkpoint of ``vaccel``, reused while its token holds.

        ``fresh=True`` bypasses and refreshes the cache — rollback
        verification uses it so a stale entry can never mask real
        divergence.
        """
        token = self._token(hypervisor, vaccel)
        if not fresh:
            hit = self._cache.get(vaccel.vaccel_id)
            if hit is not None and hit[0] == token:
                return hit[1]
        checkpoint = checkpoint_guest(hypervisor, vaccel, accel_type=accel_type)
        self._cache[vaccel.vaccel_id] = (token, checkpoint)
        return checkpoint

    def forget(self, vaccel_id: int) -> None:
        self._cache.pop(vaccel_id, None)


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
