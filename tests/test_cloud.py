"""Tests for the cloud-provider layer: library, configurations, placement."""

import pytest

from repro.accel.streaming import REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.cloud import AcceleratorLibrary, CloudProvider, FpgaConfiguration
from repro.errors import ConfigurationError, SchedulerError, SynthesisError
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import ms, us


class TestLibrary:
    def test_default_library_offers_table1(self):
        library = AcceleratorLibrary()
        assert len(library.entries()) == 14
        assert library.offers("AES")
        assert not library.offers("NONSENSE")

    def test_restricted_library(self):
        library = AcceleratorLibrary(["AES", "SHA"])
        assert library.offers("AES")
        assert not library.offers("MD5")
        with pytest.raises(ConfigurationError):
            library.make_job("MD5")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            AcceleratorLibrary(["AES", "WAT"])


class TestConfiguration:
    def test_synthesize_valid_mix(self):
        config = FpgaConfiguration.synthesize(["AES", "AES", "SHA", "MB"])
        assert config.n_slots == 4
        assert config.slots_of_type("AES") == [0, 1]
        assert config.report.fits
        summary = config.utilization_summary()
        assert 0 < summary["alm_pct"] <= 100

    def test_slots_of_type_copies_the_cached_index(self):
        config = FpgaConfiguration.synthesize(["AES", "AES", "SHA", "MB"])
        assert config.slot_index == {"AES": (0, 1), "SHA": (2,), "MB": (3,)}
        config.slots_of_type("AES").append(9)  # a copy: the index is immutable
        assert config.slots_of_type("AES") == [0, 1]
        assert config.slots_of_type("LL") == []

    def test_nine_slots_rejected_by_synthesis(self):
        with pytest.raises(SynthesisError):
            FpgaConfiguration.synthesize(["LL"] * 9)

    def test_unoffered_type_rejected(self):
        library = AcceleratorLibrary(["AES"])
        with pytest.raises(ConfigurationError):
            FpgaConfiguration.synthesize(["AES", "SHA"], library=library)


class TestPlacement:
    def make_provider(self, slots=("MB", "MB", "LL"), slice_us=400):
        config = FpgaConfiguration.synthesize(list(slots))
        params = PlatformParams(time_slice_ps=us(slice_us))
        return CloudProvider(config, params=params)

    def start_mb(self, tenant):
        ws = tenant.handle.alloc_buffer(8 * MB)
        for reg, value in ((REG_SRC, ws), (REG_LEN, 8 * MB), (REG_PARAM0, 0), (REG_PARAM1, 0)):
            tenant.handle.mmio_write(reg, value)
        tenant.handle.start()

    def test_spatial_then_temporal_placement(self):
        provider = self.make_provider()
        first = provider.place("t0", "MB", window_bytes=16 * MB)
        second = provider.place("t1", "MB", window_bytes=16 * MB)
        assert {first.physical_index, second.physical_index} == {0, 1}
        assert not first.oversubscribed and not second.oversubscribed
        third = provider.place("t2", "MB", window_bytes=16 * MB)
        assert third.physical_index in (0, 1)
        assert third.oversubscribed

    def test_unavailable_type_rejected(self):
        provider = self.make_provider()
        with pytest.raises(SchedulerError):
            provider.place("t", "AES")

    def test_oversubscribed_tenants_share_time(self):
        provider = self.make_provider(slots=("MB",))
        a = provider.place("a", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 1})
        b = provider.place("b", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 2})
        self.start_mb(a)
        self.start_mb(b)
        provider.platform.run_for(ms(4))
        assert a.vaccel.job.ops_done > 0
        assert b.vaccel.job.ops_done > 0
        assert a.vaccel.preempt_count + b.vaccel.preempt_count >= 2

    def test_eviction_frees_slot_and_slice(self):
        provider = self.make_provider(slots=("MB",))
        a = provider.place("a", "MB", window_bytes=16 * MB)
        iova = a.vaccel.slice.iova_base
        a.handle.alloc_buffer(2 * MB)
        assert provider.platform.iommu.page_table.is_mapped(iova)
        provider.evict(a)
        assert not provider.platform.iommu.page_table.is_mapped(iova)
        replacement = provider.place("b", "MB", window_bytes=16 * MB)
        assert replacement.physical_index == 0
        assert not replacement.oversubscribed

    def test_rebalance_migrates_to_empty_slot(self):
        provider = self.make_provider(slots=("MB", "MB"))
        a = provider.place("a", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 3})
        # Force both tenants onto slot 0 by occupying slot 1 then evicting.
        filler = provider.place("filler", "MB", window_bytes=16 * MB)
        b = provider.place("b", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 4})
        provider.evict(filler)
        assert self_occupancies(provider) in ([2, 0], [1, 1])
        self.start_mb(a)
        self.start_mb(b)
        provider.platform.run_for(ms(2))
        if self_occupancies(provider) == [2, 0]:
            moved = provider.rebalance()
            assert moved == 1
        assert self_occupancies(provider) == [1, 1]

    def test_migrated_tenant_reports_its_new_slot(self):
        # Regression: Tenant kept its own copy of physical_index, so after
        # a rebalance the moved tenant still reported its *source* slot —
        # `oversubscribed` read the wrong slot and FleetNode.evict returned
        # an EvictedPlacement naming a slot the tenant no longer lived on.
        from repro.fleet.node import FleetNode, NodeSpec

        node = FleetNode(NodeSpec.of("n", ("AES", "AES")))
        tenants = {name: node.place(name, "AES") for name in "abcd"}
        node.evict("b")
        node.evict("d")  # a and c now share slot 0; slot 1 is empty
        assert self_occupancies(node.provider) == [2, 0]
        assert node.rebalance() == 1
        moved = next(t for t in tenants.values() if t.vaccel.physical_index == 1)
        assert moved.physical_index == 1
        assert not moved.oversubscribed
        node.check_ledger()
        placement = node.evict(moved.name)
        assert placement.physical_index == 1 and not placement.oversubscribed
        assert node.provider.recount() == node.slots.per_slot == [1, 0]

    def test_tenants_compare_by_identity(self):
        provider = self.make_provider()
        first = provider.place("t0", "MB", window_bytes=16 * MB)
        second = provider.place("t1", "MB", window_bytes=16 * MB)
        assert first != second and first == first
        provider.evict(first)
        assert provider.tenants == [second]

    def test_oversubscription_spill_least_loaded(self):
        # Free slots exhausted -> the temporal spill picks the
        # least-loaded slot of the type, and the tenant sees it.
        provider = self.make_provider(slots=("MB", "MB"))
        t0 = provider.place("t0", "MB", window_bytes=16 * MB)
        t1 = provider.place("t1", "MB", window_bytes=16 * MB)
        assert {t0.physical_index, t1.physical_index} == {0, 1}
        t2 = provider.place("t2", "MB", window_bytes=16 * MB)
        assert t2.oversubscribed
        t3 = provider.place("t3", "MB", window_bytes=16 * MB)
        # t2 doubled up one slot; t3 must land on the other (occupancy
        # 1) rather than stacking a third tenant onto t2's slot.
        assert t3.physical_index != t2.physical_index
        assert provider.recount() == provider.slots.per_slot == [2, 2]

        # Disconnecting both tenants of one slot frees it for spatial
        # placement again.
        for tenant in (t2, t0 if t0.physical_index == t2.physical_index else t1):
            provider.evict(tenant)
        t4 = provider.place("t4", "MB", window_bytes=16 * MB)
        assert not t4.oversubscribed
        assert t4.physical_index == t2.physical_index

    def test_occupancy_report(self):
        provider = self.make_provider()
        provider.place("a", "MB", window_bytes=16 * MB)
        provider.place("b", "LL", window_bytes=16 * MB)
        report = provider.occupancy_report()
        assert report[0]["type"] == "MB"
        assert report[2]["oversubscription"] == 1


def self_occupancies(provider):
    return [len(m.vaccels) for m in provider.hypervisor.physical[:2]]
