"""The cloud provider: placement of tenant jobs onto a configured FPGA.

Ties the whole reproduction together at the paper's deployment altitude
(§3): the provider synthesizes an :class:`FpgaConfiguration`, boots an
OPTIMUS platform for it, and serves tenant requests ("I want an AES
accelerator") by placing each on a physical slot of the right type —
spatially while free slots of that type exist, temporally (oversubscribing
the least-loaded slot) once they run out.  Tenants receive an ordinary
:class:`~repro.guest.api.GuestAccelerator` handle and never see placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.library import AcceleratorLibrary, FpgaConfiguration
from repro.cloud.slots import SlotLedger
from repro.errors import ConfigurationError, SchedulerError
from repro.guest.api import GuestAccelerator
from repro.hv.checkpoint import GuestCheckpoint, restore_guest
from repro.hv.hypervisor import OptimusHypervisor
from repro.hv.mdev import VirtualAccelerator
from repro.mem.address import GB, MB
from repro.platform.builder import Platform, build_platform
from repro.platform.params import PlatformParams


@dataclass(eq=False)  # identity equality: membership tests compare pointers
class Tenant:
    """One placed customer: their VM, handle, and placement facts."""

    name: str
    accel_type: str
    vaccel: VirtualAccelerator
    handle: GuestAccelerator

    @property
    def physical_index(self) -> int:
        """The slot the tenant lives on *now* (migration moves the vaccel)."""
        return self.vaccel.physical_index

    @property
    def oversubscribed(self) -> bool:
        manager = self.handle.hypervisor.physical[self.vaccel.physical_index]
        return len(manager.vaccels) > 1


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
        self.hypervisor = OptimusHypervisor(self.platform)
        self.tenants: List[Tenant] = []
        #: Placement bookkeeping; the hypervisor's per-slot vaccel lists
        #: stay the ground truth it is checked against (:meth:`recount`).
        self.slots = SlotLedger(configuration)

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
        self.tenants.append(tenant)
        self.slots.add(tenant.vaccel.physical_index)

    def recount(self) -> List[int]:
        """Tenants per physical slot, counted from the hypervisor."""
        return [len(manager.vaccels) for manager in self.hypervisor.physical]

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
        physical_index = self._pick(accel_type)
        job = self.library.make_job(accel_type, **(job_kwargs or {}))
        vm = self.hypervisor.create_vm(tenant_name, mem_bytes=vm_bytes)
        vaccel = self.hypervisor.create_virtual_accelerator(
            vm, job, physical_index=physical_index
        )
        handle = GuestAccelerator(self.hypervisor, vm, vaccel, window_bytes=window_bytes)
        tenant = Tenant(
            name=tenant_name, accel_type=accel_type, vaccel=vaccel, handle=handle
        )
        # A tenant who disconnects the handle themselves (e.g. by leaving
        # a ``with provider.connect(...)`` block) is forgotten here too.
        handle._on_disconnect = lambda: self._forget(tenant)
        self._remember(tenant)
        return tenant

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
        same_type = self.configuration.slot_index.get(checkpoint.accel_type, ())
        if physical_index is None:
            physical_index = self._pick(checkpoint.accel_type)
        elif physical_index not in same_type:
            raise ConfigurationError(
                f"slot {physical_index} is not a {checkpoint.accel_type!r} slot"
            )
        job = self.library.make_job(checkpoint.accel_type, **dict(checkpoint.job_kwargs))
        vm, vaccel = restore_guest(
            self.hypervisor, checkpoint, job, physical_index=physical_index
        )
        handle = GuestAccelerator.adopt(self.hypervisor, vm, vaccel)
        tenant = Tenant(
            name=checkpoint.vm_name,
            accel_type=checkpoint.accel_type,
            vaccel=vaccel,
            handle=handle,
        )
        handle._on_disconnect = lambda: self._forget(tenant)
        self._remember(tenant)
        return tenant

    def _forget(self, tenant: Tenant) -> None:
        if tenant in self.tenants:
            self.tenants.remove(tenant)
            self.slots.remove(tenant.vaccel.physical_index)

    def evict(self, tenant: Tenant) -> None:
        """Remove a tenant, releasing its slot share and IOVA slice."""
        if tenant not in self.tenants:
            raise ConfigurationError(f"unknown tenant {tenant.name}")
        tenant.handle.disconnect()  # the disconnect hook forgets the tenant

    def rebalance(self) -> int:
        """Spread oversubscribed slots onto empty same-type slots (§7.1).

        Uses live migration; returns how many tenants moved.
        """
        moved = 0
        for accel_type in self.configuration.slot_index:
            while (move := self.slots.imbalance(accel_type)) is not None:
                busiest, idlest = move
                manager = self.hypervisor.physical[busiest]
                candidates = [va for va in manager.vaccels if va is not manager.current]
                mover = candidates[0] if candidates else manager.vaccels[0]
                done = self.hypervisor.migrate_virtual_accelerator(mover, idlest)
                self.platform.engine.run_until(
                    done, limit_ps=self.platform.engine.now + self.params.time_slice_ps * 4
                )
                self.slots.move(busiest, idlest)
                moved += 1
        return moved

    # -- reporting ------------------------------------------------------------------

    def occupancy_report(self) -> Dict[int, Dict[str, object]]:
        report: Dict[int, Dict[str, object]] = {}
        for index, accel_type in enumerate(self.configuration.slots):
            manager = self.hypervisor.physical[index]
            report[index] = {
                "type": accel_type,
                "tenants": [va.name for va in manager.vaccels],
                "oversubscription": len(manager.vaccels),
            }
        return report
