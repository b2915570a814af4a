"""The cloud provider: placement of tenant jobs onto a configured FPGA.

Ties the whole reproduction together at the paper's deployment altitude
(§3): the provider synthesizes an :class:`FpgaConfiguration`, boots an
OPTIMUS platform for it, and serves tenant requests ("I want an AES
accelerator") by placing each on a physical slot of the right type —
spatially while free slots of that type exist, temporally (oversubscribing
the least-loaded slot) once they run out.  Tenants receive an ordinary
:class:`~repro.guest.api.GuestAccelerator` handle and never see placement.

Placement is bookkeeping plus a reservation: the slot ledger records the
tenant and the hypervisor hands out the ids its guest will take
(:meth:`OptimusHypervisor.reserve`), but the guest — job, VM, vaccel,
handle, IOPT window — is built only when something reads below the ledger
(DESIGN.md §10, "Tenant lifecycle").  A fleet session that only arrives
and departs never builds one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cloud.library import AcceleratorLibrary, FpgaConfiguration
from repro.cloud.slots import SlotLedger
from repro.errors import ConfigurationError, SchedulerError
from repro.guest.api import GuestAccelerator, buffer_stagger
from repro.hv.checkpoint import GuestCheckpoint, restore_guest
from repro.hv.hypervisor import OptimusHypervisor, Reservation
from repro.hv.mdev import VirtualAccelerator
from repro.mem.address import GB, MB
from repro.platform.builder import Platform, build_platform
from repro.platform.params import PlatformParams


class Tenant:
    """One placed customer: placement facts, and their guest once built.

    Reading :attr:`vaccel` or :attr:`handle` builds every pending guest
    of the provider, in placement order, this tenant's among them.
    Tenants compare by identity.
    """

    __slots__ = (
        "name", "accel_type", "window_bytes", "vm_bytes", "job_kwargs",
        "_slot", "_reservation", "_provider", "_vaccel", "_handle", "__weakref__",
    )

    def __init__(
        self,
        provider: "CloudProvider",
        name: str,
        accel_type: str,
        slot: int,
        *,
        window_bytes: int,
        vm_bytes: int,
        job_kwargs: dict,
        reservation: Optional[Reservation] = None,
    ) -> None:
        self.name = name
        self.accel_type = accel_type
        self.window_bytes = window_bytes
        self.vm_bytes = vm_bytes
        self.job_kwargs = job_kwargs
        self._slot = slot  # where it was placed; the vaccel's once built
        self._reservation = reservation
        self._provider = provider
        self._vaccel: Optional[VirtualAccelerator] = None
        self._handle: Optional[GuestAccelerator] = None

    @property
    def built(self) -> bool:
        return self._vaccel is not None

    def _require_guest(self) -> None:
        self._provider._build_pending()
        if self._vaccel is None:
            raise ConfigurationError(
                f"tenant {self.name} left before its guest was built"
            )

    @property
    def vaccel(self) -> VirtualAccelerator:
        self._require_guest()
        return self._vaccel

    @property
    def handle(self) -> GuestAccelerator:
        self._require_guest()
        return self._handle

    @property
    def physical_index(self) -> int:
        """The slot the tenant lives on *now* (migration moves the vaccel)."""
        vaccel = self._vaccel
        return self._slot if vaccel is None else vaccel.physical_index

    @property
    def oversubscribed(self) -> bool:
        return self._provider.slots.per_slot[self.physical_index] > 1


class CloudProvider:
    """Runs one OPTIMUS FPGA and places tenants onto it."""

    def __init__(
        self,
        configuration: FpgaConfiguration,
        *,
        params: Optional[PlatformParams] = None,
        library: Optional[AcceleratorLibrary] = None,
    ) -> None:
        self.configuration = configuration
        self.library = library or AcceleratorLibrary()
        self.params = params or PlatformParams()
        self.platform: Platform = build_platform(
            self.params, n_accelerators=configuration.n_slots
        )
        self._hypervisor = OptimusHypervisor(self.platform)
        #: Resident tenants by name, in placement order.
        self.tenants: Dict[str, Tenant] = {}
        #: Placed tenants whose guest is not built yet, in placement order.
        self._pending: Dict[str, Tenant] = {}
        #: Placement bookkeeping, checked against the tenant records
        #: (:meth:`recount`) and the hypervisor (:meth:`occupancy_report`).
        self.slots = SlotLedger(configuration)

    @property
    def hypervisor(self) -> OptimusHypervisor:
        """The FPGA's hypervisor, with every placed tenant's guest built."""
        self._build_pending()
        return self._hypervisor

    # -- placement -----------------------------------------------------------------

    def _pick(self, accel_type: str) -> int:
        """The slot for a new ``accel_type`` tenant (the ledger's rule)."""
        physical_index = self.slots.pick(accel_type)
        if physical_index is None:
            raise SchedulerError(
                f"configuration has no {accel_type!r} slot; "
                f"available: {sorted(self.configuration.slot_index)}"
            )
        return physical_index

    def _remember(self, tenant: Tenant) -> None:
        """Record a resident tenant."""
        self.tenants[tenant.name] = tenant
        self.slots.add(tenant.physical_index)

    def _check_new(self, tenant_name: str) -> None:
        if tenant_name in self.tenants:
            raise ConfigurationError(f"tenant {tenant_name!r} is already placed")

    def recount(self) -> List[int]:
        """Tenants per physical slot, counted from the tenant records (a
        built tenant where its vaccel is, an unbuilt one where it was
        placed); builds nothing."""
        counts = [0] * self.configuration.n_slots
        for tenant in self.tenants.values():
            counts[tenant.physical_index] += 1
        return counts

    def place(
        self,
        tenant_name: str,
        accel_type: str,
        *,
        window_bytes: int = 64 * MB,
        vm_bytes: int = 10 * GB,
        job_kwargs: Optional[dict] = None,
    ) -> Tenant:
        """Admit a tenant requesting one accelerator of ``accel_type``.

        Spatial first: an empty slot of the right type.  Then temporal:
        the least-oversubscribed slot of that type.  Rejected only if the
        configuration carries no slot of the type at all.
        """
        self._check_new(tenant_name)
        physical_index = self._pick(accel_type)
        reservation = self._hypervisor.reserve(window_bytes)
        # Refuse now what the guest library would refuse at the build.
        if window_bytes <= buffer_stagger(self.params.page_size, reservation.vaccel_id):
            self._hypervisor.release_slice(reservation.slice_index)
            raise ConfigurationError(
                f"a {window_bytes}-byte window leaves no room for buffers"
            )
        tenant = Tenant(
            self,
            tenant_name,
            accel_type,
            physical_index,
            window_bytes=window_bytes,
            vm_bytes=vm_bytes,
            job_kwargs=job_kwargs or {},
            reservation=reservation,
        )
        self._pending[tenant_name] = tenant
        self._remember(tenant)
        return tenant

    def _build_pending(self) -> None:
        """Build every pending tenant's guest, in placement order, so each
        slot's vaccels attach in the order they were placed.  A tenant
        whose build raises (its ``job_kwargs``, say) stays pending."""
        for name in list(self._pending):
            self._build(self._pending[name])
            del self._pending[name]

    def _build(self, tenant: Tenant) -> None:
        """Boot a placed tenant's guest with the ids reserved for it."""
        hypervisor = self._hypervisor
        reservation = tenant._reservation
        job = self.library.make_job(tenant.accel_type, **tenant.job_kwargs)
        vm = hypervisor.create_vm(
            tenant.name, mem_bytes=tenant.vm_bytes, index=reservation.vm_index
        )
        vaccel = hypervisor.create_virtual_accelerator(
            vm,
            job,
            physical_index=tenant._slot,
            vaccel_id=reservation.vaccel_id,
            slice_index=reservation.slice_index,
        )
        handle = GuestAccelerator(hypervisor, vm, vaccel, window_bytes=tenant.window_bytes)
        self._adopt(tenant, vaccel, handle)

    def _adopt(
        self, tenant: Tenant, vaccel: VirtualAccelerator, handle: GuestAccelerator
    ) -> None:
        tenant._vaccel, tenant._handle = vaccel, handle
        # A tenant who disconnects the handle themselves (e.g. by leaving
        # a ``with provider.connect(...)`` block) is forgotten here too.
        handle._on_disconnect = lambda: self._forget(tenant)

    def connect(
        self,
        tenant_name: str,
        accel_type: str,
        *,
        window_bytes: int = 64 * MB,
        vm_bytes: int = 10 * GB,
        job_kwargs: Optional[dict] = None,
    ) -> GuestAccelerator:
        """Place a tenant and return just the guest handle.

        The handle is a context manager; exiting the block disconnects it
        and drops the provider's tenant record.
        """
        return self.place(
            tenant_name,
            accel_type,
            window_bytes=window_bytes,
            vm_bytes=vm_bytes,
            job_kwargs=job_kwargs,
        ).handle

    def restore(
        self,
        checkpoint: GuestCheckpoint,
        *,
        physical_index: Optional[int] = None,
    ) -> Tenant:
        """Admit a migrated-in tenant from a :class:`GuestCheckpoint`.

        The placement rule matches :meth:`place` (least-occupied slot of
        the checkpoint's accelerator type), but the guest is rebuilt with
        :func:`repro.hv.checkpoint.restore_guest` instead of probed fresh:
        its job is built from the checkpoint's type and constructor
        arguments, its pages land at the original GVAs and the
        shadow-paging hypercalls are replayed against the new IOVA slice.
        """
        self._check_new(checkpoint.vm_name)
        same_type = self.configuration.slot_index.get(checkpoint.accel_type, ())
        if physical_index is None:
            physical_index = self._pick(checkpoint.accel_type)
        elif physical_index not in same_type:
            raise ConfigurationError(
                f"slot {physical_index} is not a {checkpoint.accel_type!r} slot"
            )
        job_kwargs = dict(checkpoint.job_kwargs)
        job = self.library.make_job(checkpoint.accel_type, **job_kwargs)
        hypervisor = self.hypervisor
        vm, vaccel = restore_guest(hypervisor, checkpoint, job, physical_index=physical_index)
        tenant = Tenant(
            self,
            checkpoint.vm_name,
            checkpoint.accel_type,
            physical_index,
            window_bytes=checkpoint.window_size,
            vm_bytes=checkpoint.mem_bytes,
            job_kwargs=job_kwargs,
        )
        self._adopt(tenant, vaccel, GuestAccelerator.adopt(hypervisor, vm, vaccel))
        self._remember(tenant)
        return tenant

    def _forget(self, tenant: Tenant) -> None:
        if self.tenants.get(tenant.name) is tenant:
            del self.tenants[tenant.name]
            self.slots.remove(tenant.physical_index)

    def evict(self, tenant: Tenant) -> None:
        """Remove a tenant, releasing its slot share and IOVA slice."""
        if self.tenants.get(tenant.name) is not tenant:
            raise ConfigurationError(f"unknown tenant {tenant.name}")
        if tenant._handle is None:  # never built: hand its slice back
            del self._pending[tenant.name]
            self._hypervisor.release_slice(tenant._reservation.slice_index)
            self._forget(tenant)
        else:
            tenant._handle.disconnect()  # the disconnect hook forgets the tenant

    def rebalance(self) -> int:
        """Spread oversubscribed slots onto empty same-type slots (§7.1).

        Uses live migration; returns how many tenants moved.
        """
        hypervisor = self.hypervisor
        moved = 0
        for accel_type in self.configuration.slot_index:
            while (move := self.slots.imbalance(accel_type)) is not None:
                busiest, idlest = move
                manager = hypervisor.physical[busiest]
                candidates = [va for va in manager.vaccels if va is not manager.current]
                mover = candidates[0] if candidates else manager.vaccels[0]
                done = hypervisor.migrate_virtual_accelerator(mover, idlest)
                self.platform.engine.run_until(
                    done, limit_ps=self.platform.engine.now + self.params.time_slice_ps * 4
                )
                self.slots.move(busiest, idlest)
                moved += 1
        return moved

    # -- reporting ------------------------------------------------------------------

    def occupancy_report(self) -> Dict[int, Dict[str, object]]:
        """Each slot's tenants, read from the hypervisor's vaccel lists."""
        physical = self.hypervisor.physical
        report: Dict[int, Dict[str, object]] = {}
        for index, accel_type in enumerate(self.configuration.slots):
            manager = physical[index]
            report[index] = {
                "type": accel_type,
                "tenants": [va.name for va in manager.vaccels],
                "oversubscription": len(manager.vaccels),
            }
        return report
