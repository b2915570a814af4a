"""Tests for ISSUE 8: live migration + typed fleet ops + autoscaler.

The load-bearing guarantees:

* checkpoint/restore is *bit-identical* — a guest migrated across
  hypervisors finishes with exactly the memory a never-migrated run
  produces at the same seed;
* the typed verbs (:class:`~repro.fleet.ops.FleetOps`) preserve accepted
  work — a drain under live load loses no sessions;
* the autoscaler is deterministic — serial and ``--shards N`` runs emit
  byte-identical chaos envelopes with the autoscaler installed;
* proactive evacuation strictly beats reactive failover on the same
  seeded degrade->crash plan (the ISSUE 8 acceptance criterion).
"""

import dataclasses
import hashlib
import json
import pickle
import struct

import pytest

from repro import __main__ as cli
from repro.accel import AesJob, Sha512Job
from repro.accel.streaming import REG_DST, REG_LEN, REG_SRC
from repro.fleet import (
    FleetCluster,
    FleetObserver,
    FleetService,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
)
from repro.errors import GuestError, SchedulerError
from repro.guest import GuestAccelerator
from repro.hv import (
    BAR2_WINDOW_SIZE,
    OptimusHypervisor,
    checkpoint_guest,
    guest_memory_digest,
    quiesce_guest,
    restore_guest,
)
from repro.hv.mdev import VAccelState
from repro.mem import MB
from repro.platform import PlatformParams, build_platform
from repro.sim.clock import ms, us

BUF = 2 * MB
PAYLOAD = bytes((i * 31 + 7) & 0xFF for i in range(BUF))


def make_hv():
    platform = build_platform(
        PlatformParams(time_slice_ps=us(500)), n_accelerators=2
    )
    return platform, OptimusHypervisor(platform)


def launch_guest(hv, name, job_type=AesJob):
    vm = hv.create_vm(name)
    job = job_type(functional=True)
    vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=8 * MB)
    src = handle.alloc_buffer(BUF)
    dst = handle.alloc_buffer(BUF)
    handle.write_buffer(src, PAYLOAD)
    handle.mmio_write(REG_SRC, src)
    handle.mmio_write(REG_DST, dst)
    handle.mmio_write(REG_LEN, BUF)
    handle.start()
    return vm, job, vaccel, handle, src, dst


class WedgedAesJob(AesJob):
    """Raises mid-flight: a circuit wedged by a bad register value."""

    def body(self, ctx):
        yield ctx.cycles(100)
        raise RuntimeError("datapath wedged")


def run_until_done(platform, job, *, step_ms=1, limit_steps=100):
    for _ in range(limit_steps):
        if job.done:
            return
        platform.run_for(ms(step_ms))
    raise AssertionError("job did not finish within the limit")


class TestCheckpointRestore:
    def test_migrated_digest_matches_never_migrated_run(self):
        # Source hypervisor: run the guest partway, then quiesce + snapshot.
        platform_a, hv_a = make_hv()
        _vm_a, job_a, vaccel_a, _h, src, dst = launch_guest(hv_a, "mover")
        platform_a.run_for(us(40))
        assert 0 < job_a.cursor < BUF  # genuinely mid-flight
        quiesce_guest(hv_a, vaccel_a)
        checkpoint = checkpoint_guest(hv_a, vaccel_a)
        # checkpoint_guest is a pure read: snapshotting twice is stable.
        assert checkpoint.digest() == checkpoint_guest(hv_a, vaccel_a).digest()
        assert checkpoint.n_pages > 0

        # Destination hypervisor: restore, resume, finish.
        platform_b, hv_b = make_hv()
        job_b = AesJob(functional=True)
        vm_b, vaccel_b = restore_guest(hv_b, checkpoint, job_b)
        # Progress travels in the state buffer, one of the guest's pages,
        # and is replayed from there at switch-in.
        assert checkpoint.state_saved and vaccel_b.state_saved
        cursor = int.from_bytes(vm_b.read_memory(vaccel_b.state_buffer_gva, 8), "little")
        assert cursor == job_a.cursor
        run_until_done(platform_b, job_b)

        # Baseline: the same guest, never migrated.
        platform_c, hv_c = make_hv()
        vm_c, job_c, _va, _h2, src_c, dst_c = launch_guest(hv_c, "mover")
        assert (src_c, dst_c) == (src, dst)  # deterministic allocator
        run_until_done(platform_c, job_c)

        regions = [(src, BUF), (dst, BUF)]
        assert guest_memory_digest(vm_b, regions) == guest_memory_digest(
            vm_c, regions
        )

    def test_a_guest_checkpointed_after_it_finished_restores_finished(self):
        platform_a, hv_a = make_hv()
        _vm, job_a, vaccel_a, *_ = launch_guest(hv_a, "finisher")
        run_until_done(platform_a, job_a)
        checkpoint = checkpoint_guest(hv_a, vaccel_a)
        assert checkpoint.done

        platform_b, hv_b = make_hv()
        job_b = AesJob(functional=True)
        _vm_b, vaccel_b = restore_guest(hv_b, checkpoint, job_b)
        assert vaccel_b.state is VAccelState.DONE
        assert platform_b.engine.run_until(job_b.completion) is True

    def test_a_guest_whose_job_crashed_restores_failed_with_that_crash(self):
        platform_a, hv_a = make_hv()
        _vm, job_a, vaccel_a, *_ = launch_guest(hv_a, "crasher", WedgedAesJob)
        platform_a.run_for(us(40))
        assert isinstance(job_a.completion.exception(), RuntimeError)
        checkpoint = pickle.loads(pickle.dumps(checkpoint_guest(hv_a, vaccel_a)))
        assert checkpoint.failure == "RuntimeError: datapath wedged"
        healthy = dataclasses.replace(checkpoint, failure=None)
        assert checkpoint.digest() != healthy.digest()

        platform_b, hv_b = make_hv()
        job_b = AesJob(functional=True)
        _vm_b, vaccel_b = restore_guest(hv_b, checkpoint, job_b)
        assert vaccel_b.state is VAccelState.DONE
        with pytest.raises(GuestError, match="RuntimeError: datapath wedged"):
            platform_b.engine.run_until(job_b.completion)

    def test_restore_rejects_page_size_mismatch(self):
        from repro.errors import ConfigurationError
        from repro.mem import PAGE_SIZE_4K

        platform_a, hv_a = make_hv()
        _vm, _job, vaccel, _h, _src, _dst = launch_guest(hv_a, "mover")
        platform_a.run_for(us(40))
        quiesce_guest(hv_a, vaccel)
        checkpoint = checkpoint_guest(hv_a, vaccel)

        platform_b = build_platform(
            PlatformParams(time_slice_ps=us(500), page_size=PAGE_SIZE_4K),
            n_accelerators=2,
        )
        hv_b = OptimusHypervisor(platform_b)
        with pytest.raises(ConfigurationError):
            restore_guest(hv_b, checkpoint, AesJob(functional=True))

    def test_a_window_rewrite_leaves_its_pages_on_the_dummy_frame_after_restore(self):
        # Writing the window re-backs its pages with the dummy frame and
        # unregisters them (DESIGN.md §12): the restore must not map the
        # page to its real frame again on the destination.
        _platform_a, hv_a = make_hv()
        vm = hv_a.create_vm("rewriter")
        vaccel_a = hv_a.create_virtual_accelerator(
            vm, AesJob(functional=False), physical_index=0
        )
        handle = GuestAccelerator(hv_a, vm, vaccel_a, window_bytes=8 * MB)
        gva = handle.alloc_buffer(64)
        assert vaccel_a.mapped_gvas == {gva}
        hv_a.guest_bar2_write(vaccel_a, BAR2_WINDOW_SIZE, 8 * MB)
        checkpoint = checkpoint_guest(hv_a, vaccel_a)
        _platform_b, hv_b = make_hv()
        _vm_b, vaccel_b = restore_guest(hv_b, checkpoint, AesJob(functional=False))

        def frame_of(hv, vaccel):
            iova = vaccel.slice.iova_base + (gva - vaccel.window_base_gva)
            return hv.platform.iommu.page_table.translate(iova)

        assert frame_of(hv_a, vaccel_a) == hv_a.dummy_frame()
        assert frame_of(hv_b, vaccel_b) == hv_b.dummy_frame()

    def test_restored_hash_resumes_its_running_state(self):
        # A hash is live state the cursor does not capture: the restored
        # job must finish with the digest of the whole payload, not of
        # the bytes it streamed after the restore.
        platform_a, hv_a = make_hv()
        _vm, job_a, vaccel_a, *_ = launch_guest(hv_a, "hasher", Sha512Job)
        platform_a.run_for(us(40))
        assert 0 < job_a.cursor < BUF
        quiesce_guest(hv_a, vaccel_a)
        checkpoint = checkpoint_guest(hv_a, vaccel_a)

        platform_b, hv_b = make_hv()
        job_b = Sha512Job(functional=True)
        restore_guest(hv_b, checkpoint, job_b)
        run_until_done(platform_b, job_b)
        assert job_b.digest == hashlib.sha512(PAYLOAD).digest()

    def test_a_fresh_provider_rebuilds_the_job_from_the_checkpoint_alone(self):
        # SW's query is a constructor argument no register carries: the
        # checkpoint must bring it, or the restored job scores against the
        # default query.
        from repro.accel.sw import decode_sequence
        from repro.cloud import CloudProvider, FpgaConfiguration
        from repro.kernels import best_score

        query = "TTGACCATTGAC"
        records = b"".join(
            bytes((i * 7 + j * 3) % 251 + 1 for j in range(60)) + bytes(4)
            for i in range(256)
        )
        configuration = FpgaConfiguration.synthesize(["SW"])
        params = PlatformParams(time_slice_ps=us(2))
        source = CloudProvider(configuration, params=params)
        tenant = source.place("aligner", "SW", job_kwargs={"query": query})
        handle = tenant.handle
        src = handle.alloc_buffer(len(records))
        dst = handle.alloc_buffer(4 * 256)
        handle.write_buffer(src, records)
        for reg, value in {REG_SRC: src, REG_DST: dst, REG_LEN: len(records)}.items():
            handle.mmio_write(reg, value)
        handle.start()
        while tenant.vaccel.state is not VAccelState.SCHEDULED:
            source.platform.run_for(us(1))
        source.platform.run_for(us(2))
        checkpoint = checkpoint_guest(source.hypervisor, tenant.vaccel)
        assert not checkpoint.done and checkpoint.job_kwargs == (("query", query),)

        destination = CloudProvider(configuration, params=params)
        restored = destination.restore(checkpoint)
        run_until_done(destination.platform, restored.vaccel.job)
        expected = [best_score(query, decode_sequence(records[i : i + 60]))
                    for i in range(0, len(records), 64)]
        scores = restored.handle.read_buffer(dst, 4 * 256)
        assert list(struct.unpack("<256I", scores)) == expected

    def test_a_restored_handle_allocates_no_page_the_source_registered(self):
        # Checkpointed before start: the restored guest's first allocation
        # is the state buffer that start registers, and the first
        # preemption writes job state into it, so it must miss the data.
        from repro.cloud import CloudProvider, FpgaConfiguration

        configuration = FpgaConfiguration.synthesize(["AES"])
        source = CloudProvider(configuration)
        handle = source.place("t", "AES").handle
        src, dst = handle.alloc_buffer(BUF), handle.alloc_buffer(BUF)
        checkpoint = checkpoint_guest(source.hypervisor, source.tenants["t"].vaccel)
        assert not checkpoint.started and checkpoint.mapped_gvas

        restored = CloudProvider(configuration).restore(checkpoint).handle
        page = restored.vm.page_size
        state = restored.setup_preemption()
        assert state > max(checkpoint.mapped_gvas)
        assert not set(range(state, state + page, page)) & set(checkpoint.mapped_gvas)
        assert restored.alloc_buffer(page) > state > max(src, dst)

    def test_a_guest_that_never_cedes_the_fabric_raises_scheduler_error(self):
        # No scheduling loop runs, so nothing will switch the guest out:
        # the quiesce deadline passes and the documented error surfaces.
        _platform, hv = make_hv()
        vm = hv.create_vm("stuck")
        vaccel = hv.create_virtual_accelerator(
            vm, AesJob(functional=False), physical_index=0
        )
        vaccel.state = VAccelState.SCHEDULED
        with pytest.raises(SchedulerError):
            quiesce_guest(hv, vaccel, limit_ps=us(500))
        assert vaccel in hv.physical[0].vaccels


def make_fleet(n_nodes=3, *, load=0.7, seed=5):
    cluster = FleetCluster.build(n_nodes)
    service = FleetService(cluster, make_policy("best-fit"))
    generator = TrafficGenerator(
        TrafficProfile(load=load), fleet_slots=cluster.total_slots, seed=seed
    )
    return cluster, service, generator


class TestFleetOpsVerbs:
    def test_drain_under_load_loses_no_accepted_work(self):
        cluster, service, generator = make_fleet()
        service.schedule_op(ms(3), "drain", node_name="node0")
        result = service.serve(generator.generate(60))
        counts = result.outcome_counts()
        assert counts.get("failed_by_fault", 0) == 0
        assert result.availability() == 1.0
        assert counts.get("migrated_completed", 0) > 0
        node = cluster.node("node0")
        assert node.cordoned and node.resident == 0

    def test_cordoned_node_receives_no_placements(self):
        cluster, service, generator = make_fleet()
        service.ops.cordon("node0")
        service.serve(generator.generate(30))
        assert cluster.node("node0").resident == 0

    def test_rebalance_is_safe_under_load(self):
        _cluster, service, generator = make_fleet()
        service.schedule_op(ms(4), "rebalance")
        result = service.serve(generator.generate(60))
        assert result.availability() == 1.0
        assert result.outcome_counts().get("failed_by_fault", 0) == 0

    def test_migration_emits_span_category(self):
        from repro.telemetry.tracer import install_tracer, uninstall_tracer

        tracer = install_tracer()
        try:
            _cluster, service, generator = make_fleet()
            service.schedule_op(ms(3), "drain", node_name="node0")
            result = service.serve(generator.generate(60))
            assert result.outcome_counts().get("migrated_completed", 0) > 0
            assert "hv.migration" in tracer.span_categories()
        finally:
            uninstall_tracer()

    def test_deprecated_crash_shims_are_gone(self):
        # FleetOps.crash is the only way to fail a node: the shims that
        # warned for two releases (ROADMAP redundancy item 2) are removed.
        from repro.parallel.shadow import ShadowCluster

        cluster, service, _generator = make_fleet(2)
        assert not hasattr(service, "apply_node_crash")
        assert not hasattr(cluster, "crash_node")
        assert not hasattr(ShadowCluster, "crash_node")
        assert service.ops.crash("node0", now=0).node == "node0"

    def test_op_observer_receives_typed_reports(self):
        # The serving loop discards scheduled-verb reports; the observer's
        # on_op is the supported way to see them (the fuzz oracle records
        # migration checkpoint digests through it).
        _cluster, service, generator = make_fleet()
        seen = []

        class OpRecorder(FleetObserver):
            def on_op(self, verb, report, now_ps):
                seen.append((verb, report, now_ps))

        service.observer = OpRecorder()
        service.schedule_op(ms(3), "drain", node_name="node0")
        service.serve(generator.generate(60))
        assert [verb for verb, _r, _n in seen] == ["drain"]
        verb, report, now_ps = seen[0]
        assert now_ps == ms(3)
        assert report.node == "node0" and report.clean
        assert all(outcome.checkpoint_digest for outcome in report.migrated)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


AUTOSCALE_ARGS = (
    "chaos", "fleet", "--plan", "single-node-crash",
    "--nodes", "4", "--requests", "40", "--autoscale", "1", "--json",
)


class TestAutoscalerDeterminism:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_envelope_identical_serial_vs_sharded(self, capsys, seed):
        code, serial = run_cli(capsys, *AUTOSCALE_ARGS, "--seed", str(seed))
        assert code == 0
        envelope = json.loads(serial)
        assert envelope["params"]["autoscale_standby"] == 1
        assert "autoscaler" in envelope["results"]
        code, sharded = run_cli(
            capsys, *AUTOSCALE_ARGS, "--seed", str(seed), "--shards", "2"
        )
        assert code == 0
        assert sharded == serial  # byte-identical, not just equivalent

    def test_drained_envelope_stable_across_repeats(self, capsys):
        args = (
            "chaos", "fleet", "--plan", "crash-quick", "--nodes", "4",
            "--requests", "40", "--drain-node", "node1", "--drain-at-ms", "3",
            "--json",
        )
        code, first = run_cli(capsys, *args)
        assert code == 0
        code, second = run_cli(capsys, *args)
        assert code == 0
        assert first == second
        params = json.loads(first)["params"]
        assert params["drain_node"] == "node1"
        assert params["drain_at_ms"] == 3


class TestProactiveEvacuationAcceptance:
    def test_strictly_fewer_failures_than_reactive(self):
        from repro.experiments import migration_recovery

        # Fewer failed sessions, and live migrations happened: both are
        # the module's declared claims.
        table = migration_recovery.run(**migration_recovery.QUICK)
        for claim in migration_recovery.CLAIMS:
            assert claim.check(table)[1], claim.report(table)
