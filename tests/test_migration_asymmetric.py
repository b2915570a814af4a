"""Tests for virtual-accelerator migration (§7.1) and asymmetric mux trees."""

import pytest

from repro.accel import MemBenchJob
from repro.accel.streaming import REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.errors import ConfigurationError, SchedulerError
from repro.guest import GuestAccelerator
from repro.hv import OptimusHypervisor, migrate, quiesce_guest
from repro.hv.mdev import VAccelState
from repro.mem import MB
from repro.platform import PlatformParams, build_platform
from repro.sim.clock import ms, us


def launch_mb(hv, name, physical_index, seed):
    vm = hv.create_vm(name)
    job = MemBenchJob(functional=False, seed=seed, lines_per_request=16)
    vaccel = hv.create_virtual_accelerator(vm, job, physical_index=physical_index)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=24 * MB)
    ws = handle.alloc_buffer(8 * MB)
    handle.mmio_write(REG_SRC, ws)
    handle.mmio_write(REG_LEN, 8 * MB)
    handle.mmio_write(REG_PARAM0, 0)
    handle.mmio_write(REG_PARAM1, 0)
    handle.start()
    return vm, job, vaccel, handle


class TestMigration:
    def make(self, slice_us=500):
        platform = build_platform(
            PlatformParams(time_slice_ps=us(slice_us)), n_accelerators=2
        )
        return platform, OptimusHypervisor(platform)

    def test_running_job_migrates_and_keeps_progress(self):
        platform, hv = self.make()
        _vm, job, vaccel, _handle = launch_mb(hv, "mover", 0, 0xAA)
        platform.run_for(ms(2))
        before = job.ops_done
        assert before > 0
        done = hv.migrate_virtual_accelerator(vaccel, 1)
        platform.engine.run_until(done, limit_ps=platform.engine.now + ms(50))
        assert vaccel.physical_index == 1
        platform.run_for(ms(2))
        assert job.ops_done > before  # resumed on the destination
        assert vaccel in hv.physical[1].vaccels
        assert vaccel not in hv.physical[0].vaccels

    def test_migration_uses_preemption_protocol(self):
        platform, hv = self.make()
        _vm, job, vaccel, _h = launch_mb(hv, "mover", 0, 0xAB)
        platform.run_for(ms(2))
        preempts_before = vaccel.preempt_count
        done = hv.migrate_virtual_accelerator(vaccel, 1)
        platform.engine.run_until(done, limit_ps=platform.engine.now + ms(50))
        assert vaccel.preempt_count == preempts_before + 1
        assert vaccel.state_saved

    def test_iopt_entries_do_not_move(self):
        platform, hv = self.make()
        _vm, _job, vaccel, _h = launch_mb(hv, "mover", 0, 0xAC)
        platform.run_for(ms(1))
        mapped_before = vaccel.vm.mmu.ept.pinned_pages()
        iova = vaccel.slice.iova_base
        hpa_before = platform.iommu.translate_sync(iova)
        done = hv.migrate_virtual_accelerator(vaccel, 1)
        platform.engine.run_until(done, limit_ps=platform.engine.now + ms(50))
        # The same IOVA still resolves to the same host frame.
        assert platform.iommu.translate_sync(iova) == hpa_before
        assert vaccel.vm.mmu.ept.pinned_pages() == mapped_before

    def test_migration_into_occupied_destination_time_shares(self):
        platform, hv = self.make(slice_us=300)
        _vm0, job0, va0, _h0 = launch_mb(hv, "a", 0, 0xAD)
        _vm1, job1, va1, _h1 = launch_mb(hv, "b", 1, 0xAE)
        platform.run_for(ms(1))
        done = hv.migrate_virtual_accelerator(va0, 1)
        platform.engine.run_until(done, limit_ps=platform.engine.now + ms(50))
        platform.run_for(ms(3))
        # Both jobs now share physical accelerator 1 preemptively.
        assert va0.physical_index == va1.physical_index == 1
        assert va0.preempt_count + va1.preempt_count >= 2
        assert job0.ops_done > 0 and job1.ops_done > 0

    def test_invalid_destinations_rejected(self):
        platform, hv = self.make()
        _vm, _job, vaccel, _h = launch_mb(hv, "m", 0, 0xAF)
        with pytest.raises(ConfigurationError):
            migrate(hv, vaccel, 0)  # same slot
        with pytest.raises(ConfigurationError):
            migrate(hv, vaccel, 9)  # nonexistent

    def test_type_mismatch_rejected(self):
        from repro.accel import LinkedListJob

        platform, hv = self.make()
        _vm, _job, mb_vaccel, _h = launch_mb(hv, "m", 0, 0xB0)
        vm2 = hv.create_vm("ll")
        ll = hv.create_virtual_accelerator(
            vm2, LinkedListJob(functional=False), physical_index=1
        )
        with pytest.raises(SchedulerError):
            migrate(hv, mb_vaccel, 1)  # MB cannot land on the LL circuit
        del ll


class TestSwitchOutWait:
    @pytest.mark.parametrize("wait", ["migrate", "quiesce"])
    def test_the_wait_ends_the_instant_the_vaccel_leaves_the_fabric(self, wait):
        platform, hv = TestMigration().make()
        engine = platform.engine
        _vm, _job, vaccel, _h = launch_mb(hv, "mover", 0, 0xB1)
        platform.run_for(ms(2))
        assert vaccel.state is VAccelState.SCHEDULED
        # The sole occupant has held the slot since its one switch-in, so
        # its busy time dates the switch-out.
        switched_in_ps = engine.now - vaccel.utilization.current_busy_ps()
        if wait == "migrate":
            done = hv.migrate_virtual_accelerator(vaccel, 1)
            engine.run_until(done, limit_ps=engine.now + ms(50))
        else:
            quiesce_guest(hv, vaccel)
        assert vaccel.state is VAccelState.QUEUED
        assert engine.now == switched_in_ps + vaccel.utilization.busy_ps


class TestAsymmetricTree:
    def test_topology_validation(self):
        from repro.core import MuxTree
        from repro.sim import Clock, Engine

        engine = Engine()
        sink = lambda p, c, r: None
        for topology in ([], [0, [1, 0]], [None, [None]]):
            with pytest.raises(ConfigurationError):
                MuxTree(engine, topology, clock=Clock(400.0),
                        level_latency_ps=0, root_egress=sink)

    def test_depth_accounting(self):
        from repro.core import MuxTree
        from repro.sim import Clock, Engine

        engine = Engine()
        tree = MuxTree(
            engine, [0, [1, [2, 3]]], clock=Clock(400.0), level_latency_ps=33_000,
            root_egress=lambda p, c, r: None,
        )
        assert tree.depth == {0: 1, 1: 2, 2: 3, 3: 3}
        assert tree.request_path_latency_ps(0) == 33_000
        assert tree.request_path_latency_ps(3) == 99_000
        assert tree.node_count == 3
        assert tree.n_leaves == 4

    def test_favoured_leaf_gets_double_share(self):
        from repro.experiments.ablations import weighted_bandwidth_study

        table = weighted_bandwidth_study(window_us=150)
        shares = {row[0]: float(row[2]) for row in table.rows}
        assert shares[0] == pytest.approx(50.0, abs=4.0)
        assert shares[1] == pytest.approx(25.0, abs=3.0)
        assert shares[2] == pytest.approx(25.0, abs=3.0)
