"""Integration tests for the hypervisor: end-to-end guest -> FPGA -> memory."""

import weakref

import pytest

from repro.accel.base import AcceleratorJob, AcceleratorProfile
from repro.errors import GuestError
from repro.fpga.resources import ResourceFootprint
from repro.guest import GuestAccelerator, NativeAccelerator
from repro.hv import (
    OptimusHypervisor,
    PassthroughHypervisor,
    PriorityScheduler,
    RoundRobinScheduler,
    WeightedScheduler,
)
from repro.hv.mdev import BAR2_WINDOW_SIZE
from repro.mem import MB
from repro.platform import PlatformMode, PlatformParams, build_platform
from repro.sim.clock import ms, us

# Application-register offsets for the test jobs.
REG_SRC = 0x00
REG_DST = 0x08
REG_LINES = 0x10


def copy_profile(preemptible=True, state_bytes=64):
    return AcceleratorProfile(
        name="copy",
        description="test copy engine",
        loc_verilog=100,
        freq_mhz=400.0,
        footprint=ResourceFootprint(1.0, 1.0),
        preemptible=preemptible,
        state_bytes=state_bytes,
    )


class CopyJob(AcceleratorJob):
    """Reads lines from src, writes them to dst; preemptible via a cursor."""

    def __init__(self, preemptible=True):
        super().__init__(copy_profile(preemptible))
        self.cursor = 0

    def body(self, ctx):
        src = self.reg(REG_SRC)
        dst = self.reg(REG_DST)
        lines = self.reg(REG_LINES)
        while self.cursor < lines:
            data = yield ctx.read(src + self.cursor * 64)
            if data is not None:
                yield ctx.write(dst + self.cursor * 64, data)
            self.cursor += 1
            preempted = yield from ctx.preempt_point()
            if preempted:
                return
        self.done = True

    def save_state(self):
        return self.cursor.to_bytes(8, "little")

    def restore_state(self, data):
        self.cursor = int.from_bytes(data[:8], "little")

    def progress_units(self):
        return self.cursor


class StubbornJob(AcceleratorJob):
    """Never checks the preemption flag — must be forcibly reset."""

    def __init__(self):
        super().__init__(copy_profile())
        self.iterations = 0

    def body(self, ctx):
        while True:
            self.iterations += 1
            yield ctx.cycles(1000)


def make_stack(n_accels=2, **param_overrides):
    params = PlatformParams().copy(**param_overrides)
    platform = build_platform(params, n_accelerators=n_accels)
    hv = OptimusHypervisor(platform)
    return platform, hv


def launch_copy(hv, vm, physical_index, lines=64, preemptible=True, window_mb=16):
    job = CopyJob(preemptible)
    vaccel = hv.create_virtual_accelerator(vm, job, physical_index=physical_index)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=window_mb * MB)
    src = handle.alloc_buffer(lines * 64)
    dst = handle.alloc_buffer(lines * 64)
    payload = bytes(range(256)) * (lines * 64 // 256)
    handle.write_buffer(src, payload)
    handle.mmio_write(REG_SRC, src)
    handle.mmio_write(REG_DST, dst)
    handle.mmio_write(REG_LINES, lines)
    return handle, job, src, dst, payload


class TestEndToEnd:
    def test_copy_job_moves_data_through_shared_memory(self):
        platform, hv = make_stack()
        vm = hv.create_vm("tenant0")
        handle, job, _src, dst, payload = launch_copy(hv, vm, 0)
        done = handle.start()
        platform.engine.run_until(done)
        assert job.done
        assert handle.read_buffer(dst, len(payload)) == payload

    def test_two_vms_same_gva_fully_isolated(self):
        platform, hv = make_stack()
        vm_a = hv.create_vm("a")
        vm_b = hv.create_vm("b")
        handle_a, job_a, _sa, dst_a, pay_a = launch_copy(hv, vm_a, 0, lines=32)
        handle_b, job_b, _sb, dst_b, pay_b = launch_copy(hv, vm_b, 1, lines=32)
        # Same GVAs in both guests (both start allocating at the same base).
        done_a = handle_a.start()
        done_b = handle_b.start()
        platform.engine.run_until(done_a)
        platform.engine.run_until(done_b)
        assert handle_a.read_buffer(dst_a, len(pay_a)) == pay_a
        assert handle_b.read_buffer(dst_b, len(pay_b)) == pay_b
        # No IOMMU faults: both guests stayed inside their slices.
        assert platform.iommu.faults["translation"] == 0

    def test_start_without_window_rejected(self):
        platform, hv = make_stack()
        vm = hv.create_vm("t")
        job = CopyJob()
        vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
        with pytest.raises(GuestError):
            hv.start_job(vaccel)

    def test_lying_guest_hypercall_rejected(self):
        platform, hv = make_stack()
        vm = hv.create_vm("liar")
        job = CopyJob()
        vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=16 * MB)
        gva = handle.alloc_buffer(64)  # legitimately mapped
        from repro.hv.mdev import BAR2_MAP_GPA, BAR2_MAP_GVA

        hv.guest_bar2_write(vaccel, BAR2_MAP_GVA, gva - (gva % vm.page_size))
        with pytest.raises(GuestError):
            # Claim a GPA that isn't what the guest page table says.
            hv.guest_bar2_write(vaccel, BAR2_MAP_GPA, 0x123456789000 & ~(vm.page_size - 1))

    def test_hypercall_outside_window_rejected(self):
        platform, hv = make_stack()
        vm = hv.create_vm("t")
        job = CopyJob()
        vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=16 * MB)
        stray = vm.alloc_pages(vm.page_size)  # outside the DMA window
        with pytest.raises(GuestError):
            handle.driver.make_page_accessible(stray)


class TestTemporalMultiplexing:
    def test_two_jobs_share_one_physical_accelerator(self):
        platform, hv = make_stack(n_accels=1, time_slice_ps=ms(1))
        vm0 = hv.create_vm("t0")
        vm1 = hv.create_vm("t1")
        h0, j0, _s0, d0, p0 = launch_copy(hv, vm0, 0, lines=2000)
        h1, j1, _s1, d1, p1 = launch_copy(hv, vm1, 0, lines=2000)
        f0 = h0.start()
        f1 = h1.start()
        platform.engine.run_until(f0)
        platform.engine.run_until(f1)
        assert j0.done and j1.done
        assert h0.read_buffer(d0, len(p0)) == p0
        assert h1.read_buffer(d1, len(p1)) == p1
        # Both were preempted at least once given 1 ms slices.
        assert hv.vaccels[0].preempt_count >= 1
        assert hv.vaccels[1].preempt_count >= 1

    def test_single_job_never_preempted(self):
        platform, hv = make_stack(n_accels=1, time_slice_ps=ms(1))
        vm = hv.create_vm("solo")
        handle, job, _s, _d, _p = launch_copy(hv, vm, 0, lines=3000)
        done = handle.start()
        platform.engine.run_until(done)
        assert hv.vaccels[0].preempt_count == 0

    def test_state_survives_preemption(self):
        platform, hv = make_stack(n_accels=1, time_slice_ps=us(200))
        vm0, vm1 = hv.create_vm("a"), hv.create_vm("b")
        h0, j0, _s0, d0, p0 = launch_copy(hv, vm0, 0, lines=1500)
        h1, j1, _s1, d1, p1 = launch_copy(hv, vm1, 0, lines=1500)
        f0, f1 = h0.start(), h1.start()
        platform.engine.run_until(f0)
        platform.engine.run_until(f1)
        # Many slices => many context switches, yet the data is intact.
        assert hv.vaccels[0].preempt_count >= 3
        assert h0.read_buffer(d0, len(p0)) == p0
        assert h1.read_buffer(d1, len(p1)) == p1

    def test_stubborn_job_forcibly_reset(self):
        platform, hv = make_stack(
            n_accels=1, time_slice_ps=us(100), preemption_timeout_ps=us(300)
        )
        vm0, vm1 = hv.create_vm("a"), hv.create_vm("b")
        stubborn = StubbornJob()
        va_bad = hv.create_virtual_accelerator(vm0, stubborn, physical_index=0)
        bad_handle = GuestAccelerator(hv, vm0, va_bad, window_bytes=16 * MB)
        h1, j1, _s1, d1, p1 = launch_copy(hv, vm1, 0, lines=200)
        bad_handle.start()
        f1 = h1.start()
        platform.engine.run_until(f1, limit_ps=ms(200))
        assert j1.done  # the well-behaved job still completed
        assert va_bad.forced_resets >= 1

    def test_mmio_postponed_while_queued(self):
        platform, hv = make_stack(n_accels=1, time_slice_ps=ms(1))
        vm0, vm1 = hv.create_vm("a"), hv.create_vm("b")
        h0, j0, _s0, _d0, _p0 = launch_copy(hv, vm0, 0, lines=4000)
        job1 = CopyJob()
        va1 = hv.create_virtual_accelerator(vm1, job1, physical_index=0)
        h1 = GuestAccelerator(hv, vm1, va1, window_bytes=16 * MB)
        h0.start()
        platform.engine.run(until_ps=us(50))
        # vaccel 1 is queued (vaccel 0 occupies the physical accelerator).
        h1.mmio_write(0x30, 0xABCD)
        read_future = h1.mmio_read(0x30)
        platform.engine.run_until(read_future)
        assert read_future.result() == 0xABCD  # served from the cache


class TestSchedulers:
    def run_with_policy(self, policy, weights_or_prios=None, lines=1200):
        platform, hv = make_stack(n_accels=1, time_slice_ps=us(500))
        manager = hv.physical[0]
        vms = [hv.create_vm(f"vm{i}") for i in range(3)]
        handles = []
        for i, vm in enumerate(vms):
            handles.append(launch_copy(hv, vm, 0, lines=lines, window_mb=64))
        if policy == "rr":
            manager.scheduler = RoundRobinScheduler(us(500))
        elif policy == "weighted":
            manager.scheduler = WeightedScheduler(weights_or_prios, us(500))
        elif policy == "priority":
            manager.scheduler = PriorityScheduler(weights_or_prios, us(500))
        futures = [h[0].start() for h in handles]
        platform.engine.run(until_ps=ms(30))
        return platform, hv, handles, futures

    def test_round_robin_equal_shares(self):
        platform, hv, handles, _f = self.run_with_policy("rr", lines=100_000)
        busy = [va.utilization.current_busy_ps() for va in hv.vaccels]
        mean = sum(busy) / len(busy)
        assert all(abs(b - mean) / mean < 0.15 for b in busy)

    def test_weighted_shares_follow_weights(self):
        weights = {0: 3.0, 1: 1.0, 2: 1.0}
        platform, hv, handles, _f = self.run_with_policy(
            "weighted", weights, lines=100_000
        )
        busy = [va.utilization.current_busy_ps() for va in hv.vaccels]
        assert busy[0] > 2.0 * busy[1]
        assert abs(busy[1] - busy[2]) / max(busy[1], busy[2]) < 0.25

    def test_priority_starves_low_priority(self):
        prios = {0: 10, 1: 0, 2: 0}
        platform, hv, handles, _f = self.run_with_policy(
            "priority", prios, lines=100_000
        )
        busy = [va.utilization.current_busy_ps() for va in hv.vaccels]
        assert busy[0] > 10 * max(busy[1], busy[2], 1)


class TestSliceRecycling:
    """Teardown must recycle IOVA slices: a long-lived serving fleet
    churns through far more sessions than the 48-bit space has slices."""

    def test_destroy_reclaims_the_slice_but_never_the_id(self):
        platform, hv = make_stack()
        vm = hv.create_vm("vm0")
        vaccels = [
            hv.create_virtual_accelerator(vm, CopyJob(True)) for _ in range(3)
        ]
        assert [va.slice.index for va in vaccels] == [0, 1, 2]
        hv.destroy_virtual_accelerator(vaccels[0])
        hv.destroy_virtual_accelerator(vaccels[2])
        assert len(hv.vaccels) == 1
        fresh = hv.create_virtual_accelerator(vm, CopyJob(True))
        # Lowest freed slice base is reused first; ids stay monotonic so
        # watchdog bookkeeping and scheduler tie-breaks never alias.
        assert fresh.slice.index == 0
        assert fresh.vaccel_id == 3

    def test_churn_beyond_max_slices_does_not_exhaust_iova_space(self):
        platform, hv = make_stack()
        vm = hv.create_vm("vm0")
        for _ in range(hv.layout.max_slices + 5):
            vaccel = hv.create_virtual_accelerator(vm, CopyJob(True))
            hv.destroy_virtual_accelerator(vaccel)
        assert len(hv.vaccels) == 0
        survivor = hv.create_virtual_accelerator(vm, CopyJob(True))
        assert survivor.slice.index == 0


class TestTenantTeardown:
    """A departed guest leaves nothing on the hypervisor or its engine."""

    def test_bar2_hypercall_is_posted(self):
        platform, hv = make_stack()
        vm = hv.create_vm("t")
        vaccel = hv.create_virtual_accelerator(vm, CopyJob(), physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=16 * MB)
        gva = handle.alloc_buffer(64)  # the probe and page registration post too
        engine = platform.engine
        assert (engine._sequence, engine.pending_events) == (0, 0)
        traps = hv.mmio_traps
        from repro.hv.mdev import BAR2_STATE_BUF

        assert hv.guest_bar2_write(vaccel, BAR2_STATE_BUF, gva) is None
        assert (engine._sequence, engine.pending_events) == (0, 0)
        assert hv.mmio_traps == traps + 1  # still counted as a trap

    def test_watched_guest_leaves_nothing_on_the_engine(self):
        # With the watchdog on, a torn-down vaccel's poller exits at its
        # next wake-up: an unbounded run returns, nothing stays pending,
        # and the vaccel dies by refcount.
        platform, hv = make_stack()
        watchdog = hv.enable_watchdog(us(5))
        vm = hv.create_vm("t")
        vaccel = hv.create_virtual_accelerator(vm, CopyJob(), physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=16 * MB)
        platform.engine.run(until_ps=us(20))  # several polls while alive
        handle.disconnect()
        assert vaccel.vaccel_id not in watchdog._watched
        platform.engine.run()
        assert platform.engine.pending_events == 0
        gone = weakref.ref(vaccel)
        del vaccel, handle
        assert gone() is None

    def test_teardown_touches_only_the_window_extent(self):
        # The departing vaccel's entries all lie inside the largest window
        # it installed (a shrink leaves the old tail mapped until then);
        # the neighbouring slice's entries are untouched.
        platform, hv = make_stack()
        vm = hv.create_vm("t")
        first = hv.create_virtual_accelerator(vm, CopyJob(), physical_index=0)
        second = hv.create_virtual_accelerator(vm, CopyJob(), physical_index=1)
        GuestAccelerator(hv, vm, first, window_bytes=16 * MB)
        GuestAccelerator(hv, vm, second, window_bytes=8 * MB)
        hv.guest_bar2_write(first, BAR2_WINDOW_SIZE, 4 * MB)  # shrink
        assert (first.window_size, first.window_extent) == (4 * MB, 16 * MB)
        iopt = platform.iommu.page_table

        def pages_of(va):
            return iopt.resident_in(va.slice.iova_base, va.slice.size)

        assert len(pages_of(first)) == 16 * MB // hv.page_size
        hv.destroy_virtual_accelerator(first)
        assert pages_of(first) == []
        assert len(pages_of(second)) == 8 * MB // hv.page_size

    def test_a_rejected_window_changes_nothing(self):
        # An oversized BAR2 window is refused before it is recorded, so no
        # later hypercall can map a page past the end of the slice.
        platform, hv = make_stack()
        vm = hv.create_vm("t")
        vaccel = hv.create_virtual_accelerator(vm, CopyJob(), physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=4 * MB)
        with pytest.raises(GuestError, match="exceeds"):
            hv.guest_bar2_write(vaccel, BAR2_WINDOW_SIZE, 2 * vaccel.slice.size)
        assert (vaccel.window_size, vaccel.window_extent) == (4 * MB, 4 * MB)
        beyond = handle.driver.window_base + vaccel.slice.size
        with pytest.raises(GuestError, match="outside the registered DMA window"):
            hv.shadow.map_page(vaccel, beyond, 0)

    def test_guest_state_is_built_on_first_use(self):
        # A tenant that only reserves its window owns no page tables, GPA
        # allocator or buffer allocator; the first buffer builds them.
        _platform, hv = make_stack()
        vm = hv.create_vm("t")
        vaccel = hv.create_virtual_accelerator(vm, CopyJob(), physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=16 * MB)
        assert (vm._mmu, vm._gpa_alloc, handle._buffers) == (None, None, None)
        gva = handle.alloc_buffer(64)
        assert None not in (vm._mmu, vm._gpa_alloc, handle._buffers)
        assert vm.mmu.gva_to_gpa(gva) == 0

    def test_gva_stagger_counts_every_vm_ever_booted(self):
        # 4 KB pages so the 37-page stagger is not rounded away.  A
        # "count live VMs" stagger would hand the second guest the first
        # one's base and move every migration digest.
        _platform, hv = make_stack(page_size=4096)
        first = hv.create_vm("first")
        with hv.connect(first, CopyJob(), window_bytes=MB) as handle:
            assert handle.driver.window_base == 1 << 40
        gone = weakref.ref(first)
        del first, handle
        assert gone() is None
        second = hv.create_vm("second")
        assert second.reserve_va(MB) == (1 << 40) + 37 * 4096


class TestPassthrough:
    def test_native_accelerator_runs_job(self):
        params = PlatformParams()
        platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
        pt = PassthroughHypervisor(platform, virtualized=False)
        handle = NativeAccelerator(pt, window_bytes=16 * MB)
        src = handle.alloc_buffer(64 * 64)
        dst = handle.alloc_buffer(64 * 64)
        payload = bytes(range(64)) * 64
        handle.write_buffer(src, payload)
        job = CopyJob()
        job.configure({REG_SRC: src, REG_DST: dst, REG_LINES: 64})
        done = handle.start(job)
        platform.engine.run_until(done)
        assert handle.read_buffer(dst, len(payload)) == payload

    def test_virtualized_mmio_costs_more_than_native(self):
        params = PlatformParams()
        p1 = build_platform(params, mode=PlatformMode.PASSTHROUGH)
        p2 = build_platform(params, mode=PlatformMode.PASSTHROUGH)
        native = PassthroughHypervisor(p1, virtualized=False)
        virt = PassthroughHypervisor(p2, virtualized=True)
        assert virt.mmio_cost_ps > native.mmio_cost_ps
