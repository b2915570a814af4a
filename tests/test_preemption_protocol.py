"""Focused tests for the preemption protocol (§4.2) and context switching."""

import pytest

from repro.accel import MemBenchJob, LinkedListJob
from repro.accel.streaming import REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.guest import GuestAccelerator
from repro.hv import OptimusHypervisor, RoundRobinScheduler
from repro.hv.mdev import VAccelState
from repro.mem import MB
from repro.platform import PlatformParams, build_platform
from repro.sim.clock import ms, us


def two_tenant_stack(slice_us=500, job_type=MemBenchJob, **params):
    platform = build_platform(
        PlatformParams(time_slice_ps=us(slice_us), **params), n_accelerators=1
    )
    hv = OptimusHypervisor(platform)
    tenants = []
    for i in range(2):
        vm = hv.create_vm(f"vm{i}")
        job = job_type(functional=False, seed=0x1111 + i, lines_per_request=16)
        vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=24 * MB)
        ws = handle.alloc_buffer(8 * MB)
        handle.mmio_write(REG_SRC, ws)
        handle.mmio_write(REG_LEN, 8 * MB)
        handle.mmio_write(REG_PARAM0, 0)
        handle.mmio_write(REG_PARAM1, 0)
        tenants.append((vm, job, vaccel, handle))
    return platform, hv, tenants


class TestPreemptionProtocol:
    def test_saved_state_lands_in_guest_buffer(self):
        platform, hv, tenants = two_tenant_stack()
        for _vm, _job, _va, handle in tenants:
            handle.start()
        platform.run_for(ms(3))
        vm0, job0, va0, _h0 = tenants[0]
        assert va0.preempt_count >= 1
        assert va0.state_buffer_gva is not None
        # The spilled bytes in guest DRAM decode back to the job's state.
        stored = vm0.read_memory(va0.state_buffer_gva, 16)
        ops = int.from_bytes(stored[:8], "little")
        assert ops > 0
        assert ops <= job0.ops_done
        # The buffer is the only copy: what the guest's memory holds at
        # switch-in is where the job resumes.
        while va0.state is not VAccelState.QUEUED:
            platform.run_for(us(10))
        planted = job0.ops_done + 10**9
        vm0.write_memory(va0.state_buffer_gva, planted.to_bytes(8, "little"))
        while va0.state is not VAccelState.SCHEDULED:
            platform.run_for(us(10))
        assert job0.ops_done >= planted

    def test_reset_pulsed_on_every_context_switch(self):
        platform, hv, tenants = two_tenant_stack()
        for _vm, _job, _va, handle in tenants:
            handle.start()
        platform.run_for(ms(3))
        manager = hv.physical[0]
        socket = platform.sockets[0]
        assert manager.context_switches >= 4
        # Isolation: the reset line fires once per switch-out.
        assert socket.reset_count >= manager.context_switches - 1

    def test_scheduled_state_transitions(self):
        platform, hv, tenants = two_tenant_stack()
        _vm, _job, va0, h0 = tenants[0]
        assert va0.state is VAccelState.QUEUED
        h0.start()
        platform.run_for(us(300))
        assert va0.state is VAccelState.SCHEDULED
        tenants[1][3].start()
        platform.run_for(ms(1))
        states = {tenants[0][2].state, tenants[1][2].state}
        assert VAccelState.SCHEDULED in states
        assert VAccelState.QUEUED in states

    def test_linkedlist_resumes_from_saved_next_pointer(self):
        platform = build_platform(
            PlatformParams(time_slice_ps=us(300)), n_accelerators=1
        )
        hv = OptimusHypervisor(platform)
        tenants = []
        for i in range(2):
            vm = hv.create_vm(f"v{i}")
            job = LinkedListJob(functional=False, seed=0x77 + i, target_hops=1 << 40)
            va = hv.create_virtual_accelerator(vm, job, physical_index=0)
            handle = GuestAccelerator(hv, vm, va, window_bytes=24 * MB)
            ws = handle.alloc_buffer(4 * MB)
            handle.mmio_write(REG_SRC, ws)
            handle.mmio_write(REG_LEN, 4 * MB)
            handle.mmio_write(REG_PARAM0, 1)  # pattern mode
            handle.mmio_write(REG_PARAM1, 1 << 40)
            handle.start()
            tenants.append((job, va))
        platform.run_for(ms(4))
        job0, va0 = tenants[0]
        assert va0.preempt_count >= 2
        assert job0.hops_done > 500  # progress despite repeated preemption

    def test_context_switch_costs_time(self):
        """With vs without a competitor: progress differs by switch cost."""
        solo_platform, solo_hv, solo_tenants = two_tenant_stack()
        solo_tenants[0][3].start()  # only one started: never preempted
        solo_platform.run_for(ms(4))
        solo_ops = solo_tenants[0][1].ops_done

        duo_platform, duo_hv, duo_tenants = two_tenant_stack()
        for _vm, _job, _va, handle in duo_tenants:
            handle.start()
        duo_platform.run_for(ms(4))
        duo_ops = duo_tenants[0][1].ops_done + duo_tenants[1][1].ops_done
        # Two jobs sharing one accelerator do slightly less aggregate work
        # than a sole occupant (context-switch overhead), but far more than
        # half each.
        assert duo_ops < solo_ops
        assert duo_ops > 0.80 * solo_ops


class CrashingJob(MemBenchJob):
    """Raises mid-flight: models a circuit wedged by a bad register value."""

    def body(self, ctx):
        yield ctx.cycles(100)
        raise RuntimeError("datapath wedged")


class TestCrashedJobs:
    def test_crashed_job_fails_visibly_and_frees_the_slot(self):
        platform = build_platform(PlatformParams(time_slice_ps=us(500)), n_accelerators=1)
        hv = OptimusHypervisor(platform)
        vm = hv.create_vm("crasher")
        job = CrashingJob(functional=False)
        vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=24 * MB)
        ws = handle.alloc_buffer(8 * MB)
        handle.mmio_write(REG_SRC, ws)
        handle.mmio_write(REG_LEN, 8 * MB)
        done = handle.start()
        platform.run_for(ms(3))
        assert done.done()
        with pytest.raises(RuntimeError):
            done.result()
        assert vaccel.crashes == 1

        # The slot is free again: a healthy tenant runs normally after.
        vm2 = hv.create_vm("healthy")
        job2 = MemBenchJob(functional=False, seed=0x99, lines_per_request=16)
        va2 = hv.create_virtual_accelerator(vm2, job2, physical_index=0)
        h2 = GuestAccelerator(hv, vm2, va2, window_bytes=24 * MB)
        ws2 = h2.alloc_buffer(8 * MB)
        h2.mmio_write(REG_SRC, ws2)
        h2.mmio_write(REG_LEN, 8 * MB)
        h2.start()
        platform.run_for(ms(2))
        assert job2.ops_done > 0

    def test_crash_does_not_stall_cotenant(self):
        platform = build_platform(PlatformParams(time_slice_ps=us(300)), n_accelerators=1)
        hv = OptimusHypervisor(platform)
        vm0 = hv.create_vm("c")
        crasher = CrashingJob(functional=False)
        va0 = hv.create_virtual_accelerator(vm0, crasher, physical_index=0)
        h0 = GuestAccelerator(hv, vm0, va0, window_bytes=24 * MB)
        ws0 = h0.alloc_buffer(8 * MB)
        h0.mmio_write(REG_SRC, ws0)
        h0.mmio_write(REG_LEN, 8 * MB)
        vm1 = hv.create_vm("ok")
        good = MemBenchJob(functional=False, seed=0x7, lines_per_request=16)
        va1 = hv.create_virtual_accelerator(vm1, good, physical_index=0)
        h1 = GuestAccelerator(hv, vm1, va1, window_bytes=24 * MB)
        ws1 = h1.alloc_buffer(8 * MB)
        h1.mmio_write(REG_SRC, ws1)
        h1.mmio_write(REG_LEN, 8 * MB)
        h0.start()
        h1.start()
        platform.run_for(ms(4))
        assert va0.crashes == 1
        assert good.ops_done > 1000  # the co-tenant owns the slot now


class UnsaveableJob(MemBenchJob):
    """Its state cannot be packed: the scheduling loop raises mid-switch."""

    def save_state(self):
        raise ValueError("state does not fit the buffer")


class TestSchedulingLoopFailure:
    def test_a_raising_save_state_fails_every_job_on_the_slot(self):
        # The first preemption raises inside the scheduling loop.  Both
        # tenants' completions raise that error; none waits for a deadline.
        platform, _hv, tenants = two_tenant_stack(job_type=UnsaveableJob)
        for _vm, _job, _va, handle in tenants:
            handle.start()
        job = tenants[0][1]
        with pytest.raises(ValueError, match="does not fit"):
            platform.engine.run_until(job.completion, limit_ps=ms(20))
        for _vm, other, vaccel, _handle in tenants:
            assert vaccel.state is VAccelState.DONE
            with pytest.raises(ValueError):
                other.completion.result()

    def test_quiesce_reports_a_dead_loop_as_its_own_error(self):
        from repro.hv import quiesce_guest

        platform, hv, tenants = two_tenant_stack(job_type=UnsaveableJob)
        for _vm, _job, _va, handle in tenants:
            handle.start()
        platform.run_for(us(300))
        vaccel = hv.physical[0].current
        with pytest.raises(ValueError, match="does not fit"):
            quiesce_guest(hv, vaccel)
