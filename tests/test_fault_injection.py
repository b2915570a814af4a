"""Fault injection: malicious and unlucky guests against the isolation layer."""

import pytest

from repro.accel.base import AcceleratorJob, AcceleratorProfile
from repro.fpga.resources import ResourceFootprint
from repro.guest import GuestAccelerator
from repro.hv import OptimusHypervisor
from repro.mem import MB, PAGE_SIZE_2M
from repro.platform import PlatformParams, build_platform
from repro.sim.clock import ms, us

ATTACK_PROFILE = AcceleratorProfile(
    name="EVIL",
    description="issues DMAs wherever its registers point",
    loc_verilog=1,
    freq_mhz=400.0,
    footprint=ResourceFootprint(0.1, 0.0),
    max_outstanding=8,
)

REG_TARGET = 0x00
REG_COUNT = 0x08


class ProbeJob(AcceleratorJob):
    """Reads COUNT lines starting at TARGET and records what came back."""

    profile = ATTACK_PROFILE

    def __init__(self):
        super().__init__()
        self.responses = []

    def body(self, ctx):
        target = self.reg(REG_TARGET)
        count = self.reg(REG_COUNT, 1)
        for i in range(count):
            data = yield ctx.read(target + 64 * i)
            self.responses.append(data)
        self.done = True


def stack_with_victim():
    platform = build_platform(PlatformParams(), n_accelerators=2)
    hv = OptimusHypervisor(platform)
    victim_vm = hv.create_vm("victim")
    victim_job = ProbeJob()
    victim_va = hv.create_virtual_accelerator(victim_vm, victim_job, physical_index=0)
    victim = GuestAccelerator(hv, victim_vm, victim_va, window_bytes=16 * MB)
    secret_buf = victim.alloc_buffer(4096)
    victim.write_buffer(secret_buf, b"SECRET--" * 8)
    return platform, hv, victim, secret_buf


class TestDmaIsolation:
    def test_probe_beyond_own_window_is_dropped(self):
        platform, hv, victim, _secret = stack_with_victim()
        attacker_vm = hv.create_vm("attacker")
        job = ProbeJob()
        vaccel = hv.create_virtual_accelerator(attacker_vm, job, physical_index=1)
        attacker = GuestAccelerator(hv, attacker_vm, vaccel, window_bytes=16 * MB)
        attacker.alloc_buffer(4096)
        # Probe far beyond the attacker's own 16 MB window.
        attacker.mmio_write(REG_TARGET, (vaccel.window_base_gva or 0) + 64 * MB)
        attacker.mmio_write(REG_COUNT, 4)
        done = attacker.start()
        platform.engine.run_until(done, limit_ps=ms(50))
        assert all(r is None for r in job.responses)
        auditor = platform.monitor.auditors[1]
        assert auditor.counters.get("dma_dropped_window") == 4

    def test_probe_at_victims_gva_reads_own_slice_not_victims(self):
        """Identical numeric GVAs land in the prober's own slice."""
        platform, hv, victim, secret_buf = stack_with_victim()
        attacker_vm = hv.create_vm("attacker")
        job = ProbeJob()
        vaccel = hv.create_virtual_accelerator(attacker_vm, job, physical_index=1)
        attacker = GuestAccelerator(hv, attacker_vm, vaccel, window_bytes=16 * MB)
        own_buf = attacker.alloc_buffer(4096)
        attacker.write_buffer(own_buf, b"mine-own" * 8)
        # The victim's secret GVA is numerically close to the attacker's
        # own window (same allocator layout); aim exactly at it.
        attacker.mmio_write(REG_TARGET, secret_buf)
        attacker.mmio_write(REG_COUNT, 1)
        done = attacker.start()
        platform.engine.run_until(done, limit_ps=ms(50))
        response = job.responses[0]
        # In-window probes succeed but can only ever see the attacker's
        # own slice: the secret never appears.
        if response is not None:
            assert b"SECRET" not in response

    def test_unregistered_window_page_reads_dummy_zeros(self):
        platform, hv, victim, _secret = stack_with_victim()
        vm = hv.create_vm("stray")
        job = ProbeJob()
        vaccel = hv.create_virtual_accelerator(vm, job, physical_index=1)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=16 * MB)
        base = vaccel.window_base_gva
        # In-window, but never registered via the hypercall: backed by the
        # hypervisor's dummy frame, which no guest data ever touches.
        handle.mmio_write(REG_TARGET, base + 8 * MB)
        handle.mmio_write(REG_COUNT, 2)
        done = handle.start()
        platform.engine.run_until(done, limit_ps=ms(50))
        for response in job.responses:
            assert response == bytes(64)
        assert platform.iommu.faults["translation"] == 0  # no IOMMU fault

    def test_victim_data_integrity_after_attacks(self):
        platform, hv, victim, secret_buf = stack_with_victim()
        for index, offset in enumerate((64 * MB, 0, 8 * MB)):
            vm = hv.create_vm(f"attacker{index}")
            job = ProbeJob()
            vaccel = hv.create_virtual_accelerator(vm, job, physical_index=1)
            handle = GuestAccelerator(hv, vm, vaccel, window_bytes=16 * MB)
            handle.mmio_write(REG_TARGET, (vaccel.window_base_gva or 0) + offset)
            handle.mmio_write(REG_COUNT, 2)
            done = handle.start()
            platform.engine.run_until(done, limit_ps=ms(100))
        assert victim.read_buffer(secret_buf, 8) == b"SECRET--"


class TestControlPlaneFaults:
    def test_guest_cannot_drive_preemption_interface(self):
        from repro.accel.base import CMD_PREEMPT, CTRL_CMD
        from repro.errors import GuestError

        platform, hv, victim, _secret = stack_with_victim()
        with pytest.raises(GuestError):
            hv.guest_mmio_write(victim.vaccel, CTRL_CMD, CMD_PREEMPT)

    def test_vaccel_count_bounded_by_iova_space(self):
        # 48-bit space / (64 GB + 128 MB) stride: ~4000 slices fit; the
        # layout reports the exact capacity and enforces it.
        platform = build_platform(PlatformParams(), n_accelerators=1)
        hv = OptimusHypervisor(platform)
        assert hv.layout.max_slices > 1000
        assert hv.layout.max_slices < 5000


# ---------------------------------------------------------------------------
# ISSUE 4: deterministic chaos — fleet self-healing + device-level defenses.
# ---------------------------------------------------------------------------

import json

from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    resolve_plan,
    run_single_chaos,
)
from repro.fleet import (
    AdmissionConfig,
    FleetCluster,
    FleetService,
    NodeHealth,
    TenantRequest,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
)


def chaos_serve(plan, *, nodes=3, requests=60, traffic_seed=1,
                admission=None, policy="best-fit"):
    cluster = FleetCluster.build(nodes)
    generator = TrafficGenerator(
        TrafficProfile(load=0.85), fleet_slots=cluster.total_slots,
        seed=traffic_seed,
    )
    service = FleetService(cluster, make_policy(policy), admission=admission)
    service.install_faults(plan)
    return service, service.serve(generator.generate(requests))


TERMINAL = ("completed", "replaced_completed", "failed_by_fault")


class TestChaosFleet:
    def test_node_crash_mid_serve_every_request_typed(self):
        """The acceptance invariant: a node crash loses nothing silently."""
        plan = resolve_plan("single-node-crash")
        service, result = chaos_serve(plan)
        # Every request that entered the loop ended in exactly one typed
        # outcome — zero hung, zero dropped.
        assert len(result.outcomes) == 60
        for outcome in result.outcomes.values():
            assert outcome in TERMINAL or outcome.startswith("rejected_")
        events = result.fault_log.summary()["events"]
        assert events[0]["kind"] == "node_crash"
        assert events[0]["outcome"] == "crashed"
        displaced = events[0]["details"]["displaced"]
        assert displaced > 0, "crash should land mid-serve"
        assert displaced == (
            events[0]["details"]["replaced"]
            + events[0]["details"]["failed_by_fault"]
        )
        assert events[1]["kind"] == "node_recover"
        counts = result.outcome_counts()
        assert counts.get("replaced_completed", 0) == events[0]["details"]["replaced"]
        assert 0.0 < result.availability() <= 1.0

    def test_dead_node_excluded_until_recovery(self):
        # Crash without recovery: node0 must stay DEAD and empty.
        plan = FaultPlan.of(
            [FaultEvent(at_ps=ms(1), kind=FaultKind.NODE_CRASH, target="node0")],
            seed=0, name="crash-only",
        )
        service, result = chaos_serve(plan)
        node0 = service.cluster.node("node0")
        assert node0.health is NodeHealth.DEAD
        assert node0.resident == 0
        assert not node0.can_place("AES")
        # Every placement after the crash went to surviving nodes.
        crash_ps = ms(1)
        for line in result.metrics.trace:
            time_ps = int(line.split()[0])
            if time_ps > crash_ps and "-> node0/" in line:
                raise AssertionError(f"placement on dead node: {line}")

    def test_guest_hang_quarantined_and_never_replaced(self):
        # A hung guest is benched by the fleet watchdog; the same tenant
        # never regains a slot inside the plan window.
        hang = FaultPlan.of(
            [FaultEvent(at_ps=ms(1), kind=FaultKind.GUEST_HANG, target="evil")],
            seed=0, name="hang-one",
        )
        requests = [
            TenantRequest(request_id=0, tenant="evil", accel_type="AES",
                          arrival_ps=us(10), session_ps=ms(50)),
            TenantRequest(request_id=1, tenant="evil", accel_type="AES",
                          arrival_ps=ms(30), session_ps=ms(1)),
            TenantRequest(request_id=2, tenant="good", accel_type="AES",
                          arrival_ps=ms(31), session_ps=ms(1)),
        ]
        cluster = FleetCluster.build(1)
        service = FleetService(
            cluster, make_policy("best-fit"),
            admission=AdmissionConfig(max_retries=2, watchdog_deadline_ps=ms(5)),
        )
        service.install_faults(hang)
        result = service.serve(requests)
        assert result.outcomes[0] == "failed_by_fault"
        # The quarantined tenant's re-attempt is refused placement...
        assert result.outcomes[1] == "rejected_retries_exhausted"
        # ...while an honest tenant reuses the freed slot immediately.
        assert result.outcomes[2] == "completed"
        summary = result.summary()
        assert summary["faults"]["quarantines"] == 1
        assert result.fault_log.records[0].outcome == "hang_armed"

    def test_same_plan_and_seed_byte_identical(self):
        plan = resolve_plan("mixed")
        _s1, first = chaos_serve(plan)
        _s2, second = chaos_serve(plan)
        assert first.outcomes == second.outcomes
        assert first.metrics.trace == second.metrics.trace
        assert first.fault_log.digest() == second.fault_log.digest()
        assert (json.dumps(first.summary(), sort_keys=True, default=str)
                == json.dumps(second.summary(), sort_keys=True, default=str))
        # A different injector seed steers the "auto" targets elsewhere.
        import dataclasses
        _s3, other = chaos_serve(dataclasses.replace(plan, seed=plan.seed + 1))
        assert other.fault_log.digest() != first.fault_log.digest()


class TestChaosSinglePlatform:
    """Device-level defenses under the same declarative plans."""

    @staticmethod
    def _params(**overrides):
        from repro.platform import PlatformParams
        overrides.setdefault("time_slice_ps", us(50))
        return PlatformParams(**overrides)

    @staticmethod
    def _run(plan, *, window_ps=us(800), **kwargs):
        kwargs.setdefault("victim", "LL")
        kwargs.setdefault("working_set", 1 * MB)
        kwargs.setdefault("watchdog_deadline_ps", us(100))
        return run_single_chaos(plan, window_ps=window_ps, **kwargs)

    def test_hang_guest_quarantined_slot_reclaimed(self):
        # The hang co-tenants with the victim on slot 0: after quarantine
        # the victim owns the slot again and keeps progressing.
        plan = FaultPlan.of(
            [FaultEvent(at_ps=us(50), kind=FaultKind.GUEST_HANG, target="slot0")],
            seed=0, name="hang-colocated",
        )
        report = self._run(plan, params=self._params())
        assert report["violations"].get("watchdog_quarantined") == 1
        assert len(report["watchdog"]["quarantined"]) == 1
        (rogue,) = report["rogues"]
        assert rogue["quarantined"] is True
        assert rogue["progress_units"] <= 4  # warm-up only, then the hang
        quarantine_ps = report["watchdog"]["events"][0]["at_ps"]
        assert quarantine_ps < us(800)
        assert report["victim_progress_units"] > 0

    def test_runaway_dma_fenced_not_quarantined(self):
        plan = FaultPlan.of(
            [FaultEvent(at_ps=us(50), kind=FaultKind.GUEST_RUNAWAY_DMA,
                        target="slot1")],
            seed=0, name="runaway-only",
        )
        report = self._run(plan, params=self._params())
        # The auditor fences the storm; the watchdog correctly sees a
        # busy (not hung) circuit and leaves it alone.
        assert report["violations"]["dma_dropped_window"] > 0
        assert report["violations"].get("watchdog_quarantined", 0) == 0
        assert report["watchdog"]["quarantined"] == []
        (rogue,) = report["rogues"]
        assert rogue["quarantined"] is False
        assert rogue["progress_units"] > 0

    def test_link_flap_during_dma_burst(self):
        flap = FaultPlan.of(
            [
                FaultEvent(at_ps=us(100), kind=FaultKind.LINK_DEGRADE,
                           params={"factor": 8.0}),
                FaultEvent(at_ps=us(300), kind=FaultKind.LINK_RESTORE),
            ],
            seed=0, name="flap-tiny",
        )
        kwargs = dict(victim="MB", working_set=1 * MB, window_ps=us(500))
        flapped = self._run(flap, **kwargs)
        clean = self._run(FaultPlan.of([], seed=0, name="clean"), **kwargs)
        # The burst victim loses bandwidth while the link is degraded but
        # recovers after the restore; both runs stay deterministic.
        assert 0 < flapped["victim_progress_units"] < clean["victim_progress_units"]
        kinds = [e["kind"] for e in flapped["fault_log"]["events"]]
        assert kinds == ["link_degrade", "link_restore"]

    def test_fast_and_reference_paths_agree_bytewise(self):
        plan = FaultPlan.of(
            [
                FaultEvent(at_ps=us(50), kind=FaultKind.GUEST_HANG,
                           target="slot1"),
                FaultEvent(at_ps=us(120), kind=FaultKind.LINK_DEGRADE,
                           params={"factor": 4.0}),
                FaultEvent(at_ps=us(240), kind=FaultKind.LINK_RESTORE),
            ],
            seed=5, name="agreement",
        )
        fast = self._run(plan, params=self._params(fast_path=True))
        fast_again = self._run(plan, params=self._params(fast_path=True))
        reference = self._run(plan, params=self._params(fast_path=False))
        as_bytes = lambda r: json.dumps(r, sort_keys=True).encode()
        assert as_bytes(fast) == as_bytes(fast_again)  # replayable
        assert as_bytes(fast) == as_bytes(reference)   # mode-agnostic


# -- fault-plan files are untrusted input ----------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultPlanError
from repro.faults.plan import preset_names

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _plausible(valid):
    """A well-typed value for one field, or any JSON value in its place."""
    return valid | _JSON


_EVENT = st.fixed_dictionaries({}, optional={
    "at_ps": _plausible(st.integers(-5, 10**12)),
    "kind": _plausible(st.sampled_from([kind.value for kind in FaultKind])),
    "target": _plausible(st.sampled_from(["auto", "node0", "slot1"])),
    "params": _plausible(st.dictionaries(
        st.sampled_from(["factor", "dmas", "span_ps"]),
        _plausible(st.floats(1.0, 16.0) | st.integers(1, 64)),
        max_size=3,
    )),
})
_PLAN = st.fixed_dictionaries({}, optional={
    "seed": _plausible(st.integers(-1, 2**33)),
    "name": _plausible(st.text(max_size=6)),
    "events": _plausible(st.lists(_EVENT | _JSON, max_size=4)),
})


class TestFaultPlanLoading:
    @settings(max_examples=400)
    @given(payload=_PLAN | _JSON)
    def test_any_json_loads_as_a_plan_or_raises_fault_plan_error(self, payload):
        try:
            plan = FaultPlan.from_dict(payload)
        except FaultPlanError:
            return
        assert isinstance(plan, FaultPlan)
        reloaded = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert reloaded == plan and reloaded.digest() == plan.digest()

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_survive_a_json_round_trip(self, name):
        plan = resolve_plan(name)
        reloaded = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert reloaded == plan and reloaded.digest() == plan.digest()
