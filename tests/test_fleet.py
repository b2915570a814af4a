"""Tests for the fleet layer: nodes, policies, admission, determinism."""

import dataclasses
import gc
import weakref

import pytest

import repro.fleet.admission
import repro.sim
from repro.errors import ConfigurationError, SchedulerError, SimulationError
from repro.fleet import (
    AdmissionConfig,
    FleetCluster,
    FleetMetrics,
    FleetNode,
    FleetObserver,
    FleetService,
    NodeSpec,
    TenantRequest,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
)
from repro.sim.clock import ms, us


def small_node(name="n0", slots=("AES", "MB"), max_oversub=2):
    return FleetNode(NodeSpec.of(name, slots), max_oversub=max_oversub)


class TestNode:
    def test_capacity_accounting(self):
        node = small_node(slots=("AES", "AES", "MB"))
        assert node.total_slots == 3
        assert node.capacity("AES") == 2
        assert node.capacity("SHA") == 0
        assert node.free_slots("AES") == 2
        assert node.headroom("AES") == 4  # 2 slots x max_oversub 2
        assert node.load == 0.0

        node.place("a", "AES")
        assert node.occupancy("AES") == 1
        assert node.free_slots("AES") == 1
        assert node.headroom("AES") == 3
        assert node.load == pytest.approx(1 / 3)
        assert node.utilization_by_type()["AES"] == pytest.approx(0.5)

    def test_oversubscription_cap_enforced(self):
        node = small_node(slots=("AES",), max_oversub=2)
        node.place("a", "AES")
        node.place("b", "AES")
        assert not node.can_place("AES")
        with pytest.raises(SchedulerError):
            node.place("c", "AES")
        node.evict("a")
        assert node.can_place("AES")

    def test_unknown_type_and_duplicate_tenant(self):
        node = small_node()
        assert not node.can_place("SHA")
        node.place("a", "AES")
        with pytest.raises(ConfigurationError):
            node.place("a", "MB")
        with pytest.raises(ConfigurationError):
            node.evict("ghost")

    def test_an_evicted_tenant_is_freed_without_the_cycle_collector(self):
        """The disconnect hook closes over the tenant, which holds the handle
        holding the hook; ``disconnect`` takes and clears it, so a departed
        tenant (placed fresh or restored from a checkpoint) is plain
        reference-counted garbage — 17 objects a session, otherwise."""
        node = small_node()
        gc.collect()
        gc.disable()
        try:
            tenant = node.place("a", "AES")
            checkpoint = node.checkpoint_tenant("a")
            gone = weakref.ref(tenant)
            del tenant
            node.evict("a")
            assert gone() is None
            gone = weakref.ref(node.restore_tenant(checkpoint))
            node.evict("a")
            assert gone() is None
        finally:
            gc.enable()

    def test_a_guest_that_disconnects_itself_is_forgotten_exactly_once(self):
        provider = small_node().provider
        forgotten = []
        forget = provider._forget
        provider._forget = lambda tenant: (forgotten.append(tenant.name), forget(tenant))
        with provider.connect("a", "MB") as handle:
            assert provider.slots.occupancy("MB") == 1
        assert forgotten == ["a"]
        assert provider.tenants == {} and provider.slots.occupancy("MB") == 0
        handle.disconnect()  # idempotent: the hook is spent
        assert forgotten == ["a"]


def policy_cluster():
    """A fixed two-node scenario the three policies resolve differently.

    Node A carries one AES slot among MemBench slots and starts loaded
    with two MB tenants; node B is AES-specialized and empty.
    """
    node_a = FleetNode(NodeSpec.of("A", ("MB", "MB", "AES")), max_oversub=4)
    node_b = FleetNode(NodeSpec.of("B", ("AES", "AES", "MB")), max_oversub=4)
    node_a.place("m1", "MB")
    node_a.place("m2", "MB")
    return FleetCluster([node_a, node_b])


FIXED_TRACE = ["q1", "q2", "q3", "q4", "q5"]  # five AES requests, no departures


def placements_under(policy_name):
    cluster = policy_cluster()
    policy = make_policy(policy_name)
    sequence = []
    for name in FIXED_TRACE:
        placed = cluster.place(name, "AES", policy)
        assert placed is not None
        node, tenant = placed
        sequence.append(node.name)
    return sequence


class TestPlacementPolicies:
    def test_first_fit_takes_fleet_order(self):
        # Spatial slots in node order (A then B twice), then the first
        # node with temporal headroom.
        assert placements_under("first-fit") == ["A", "B", "B", "A", "A"]

    def test_best_fit_takes_least_loaded(self):
        # A starts at load 2/3, so B wins until its spatial slots are
        # gone; the temporal spill also compares fleet-wide load.
        assert placements_under("best-fit") == ["B", "B", "A", "B", "A"]

    def test_affinity_prefers_specialized_nodes(self):
        # B carries two of three AES slots (affinity 2/3 vs A's 1/3):
        # every decision with a choice goes to B, including both spills.
        assert placements_under("affinity") == ["B", "B", "A", "B", "B"]

    def test_policies_disagree_on_the_fixed_trace(self):
        traces = {name: tuple(placements_under(name)) for name in
                  ("first-fit", "best-fit", "affinity")}
        assert len(set(traces.values())) == 3, traces

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("round-robin")


def request(i, accel_type="AES", arrival_ps=0, session_ps=ms(50)):
    return TenantRequest(
        request_id=i,
        tenant=f"t{i:05d}",
        accel_type=accel_type,
        arrival_ps=arrival_ps,
        session_ps=session_ps,
    )


def one_slot_service(queue_limit=2, max_retries=2):
    cluster = FleetCluster(
        [FleetNode(NodeSpec.of("solo", ("AES",)), max_oversub=1)]
    )
    service = FleetService(
        cluster,
        make_policy("first-fit"),
        admission=AdmissionConfig(queue_limit=queue_limit, max_retries=max_retries),
    )
    return service


class TestAdmission:
    def test_bounded_queue_rejects_overflow(self):
        # One slot, no oversubscription, queue of two: five simultaneous
        # long sessions -> 1 placed, 2 queued, 2 rejected at the door.
        service = one_slot_service(queue_limit=2)
        requests = [request(i, arrival_ps=us(i + 1), session_ps=ms(500))
                    for i in range(5)]
        result = service.serve(requests)
        summary = result.summary()
        assert summary["placements"] == 1
        assert summary["queued"] == 2
        assert summary["rejections_queue_full"] == 2
        # The queued pair backs off, retries, and times out gracefully.
        assert summary["rejections_retries_exhausted"] == 2
        assert summary["rejections"] == 4

    def test_departure_drains_queue(self):
        # The first session ends long before the second request's retries
        # are exhausted, so the drain (or a retry) places it.
        service = one_slot_service(queue_limit=2, max_retries=5)
        result = service.serve(
            [
                request(0, arrival_ps=us(1), session_ps=ms(1)),
                request(1, arrival_ps=us(2), session_ps=ms(1)),
            ]
        )
        summary = result.summary()
        assert summary["placements"] == 2
        assert summary["rejections"] == 0
        # The second placement waited for the first departure.
        latency = summary["placement_latency"]
        assert latency["max_ns"] > ms(1) / 1e3

    def test_unsupported_type_rejected_not_raised(self):
        service = one_slot_service()
        result = service.serve([request(0, accel_type="SHA", arrival_ps=us(1))])
        assert result.summary()["rejections_unsupported"] == 1

    def test_overload_never_raises(self):
        cluster = FleetCluster.build(1, max_oversub=2)
        generator = TrafficGenerator(
            TrafficProfile(load=8.0), fleet_slots=cluster.total_slots, seed=11
        )
        service = FleetService(
            cluster,
            make_policy("best-fit"),
            admission=AdmissionConfig(queue_limit=4),
        )
        result = service.serve(generator.generate(150))  # must not raise
        summary = result.summary()
        assert summary["placements"] + summary["rejections"] == 150
        assert summary["rejections"] > 0


class TestTraffic:
    def test_generator_is_deterministic(self):
        profile = TrafficProfile(load=1.2)
        first = TrafficGenerator(profile, fleet_slots=12, seed=9).generate(50)
        second = TrafficGenerator(profile, fleet_slots=12, seed=9).generate(50)
        assert first == second
        other = TrafficGenerator(profile, fleet_slots=12, seed=10).generate(50)
        assert first != other

    def test_arrivals_strictly_increase(self):
        requests = TrafficGenerator(
            TrafficProfile(load=0.5), fleet_slots=6, seed=3
        ).generate(40)
        arrivals = [r.arrival_ps for r in requests]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        assert all(r.session_ps >= TrafficProfile().min_session_ps for r in requests)

    def test_mix_respected(self):
        profile = TrafficProfile(load=1.0, mix={"AES": 1.0})
        requests = TrafficGenerator(profile, fleet_slots=6, seed=1).generate(20)
        assert {r.accel_type for r in requests} == {"AES"}

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficProfile(load=0.0)
        with pytest.raises(ConfigurationError):
            TrafficProfile(mix={"AES": -1.0})


def serve_fixed(seed, policy="best-fit"):
    cluster = FleetCluster.build(2, max_oversub=2)
    generator = TrafficGenerator(
        TrafficProfile(load=1.5), fleet_slots=cluster.total_slots, seed=seed
    )
    service = FleetService(
        cluster, make_policy(policy), admission=AdmissionConfig(queue_limit=8)
    )
    return service.serve(generator.generate(120))


class TestDeterminism:
    def test_same_seed_identical_placement_trace(self):
        # The regression the CLI acceptance relies on: seed -> trace is a
        # pure function, across fresh clusters and services.
        first = serve_fixed(seed=1)
        second = serve_fixed(seed=1)
        assert first.metrics.trace == second.metrics.trace
        assert first.metrics.trace_digest() == second.metrics.trace_digest()
        assert first.summary() == second.summary()

    def test_different_seed_different_trace(self):
        assert serve_fixed(seed=1).metrics.trace != serve_fixed(seed=2).metrics.trace


class TestMetrics:
    def test_empty_metrics_summarize_cleanly(self):
        metrics = FleetMetrics()
        summary = metrics.summary()
        assert summary["placements"] == 0
        assert summary["placement_latency"] is None  # explicit empty marker
        assert summary["rejection_rate"] == 0.0
        assert metrics.oversubscription_ratio() == 0.0
        assert "no placements" in metrics.render()

    def test_utilization_is_time_weighted(self):
        result = serve_fixed(seed=4)
        utilization = result.metrics.utilization_by_type()
        assert utilization, "expected per-type utilization"
        for value in utilization.values():
            assert 0.0 <= value < 4.0  # bounded by max_oversub

    def test_cluster_reports(self):
        cluster = FleetCluster.build(2)
        assert cluster.total_slots == 12
        assert "AES" in cluster.offered_types()
        placed = cluster.place("a", "AES", make_policy("first-fit"))
        assert placed is not None
        assert cluster.resident == 1
        report = cluster.occupancy_report()
        assert set(report) == {"node0", "node1"}
        cluster.evict("a")
        assert cluster.resident == 0
        with pytest.raises(ConfigurationError):
            cluster.evict("a")

    def test_recover_node_keeps_cached_registry_live(self):
        cluster = FleetCluster.build(2)
        registry = cluster.metrics_registry()
        assert registry is cluster.metrics_registry()  # built once, cached
        assert any(k.startswith("node0.") for k in registry.snapshot())
        cluster._crash_node("node0")
        cluster.recover_node("node0")
        # ISSUE 8 satellite: a registry held across crash/recover reads the
        # *rebuilt* node's instruments instead of the dead platform's.
        assert any(k.startswith("node0.") for k in registry.snapshot())
        assert registry is cluster.metrics_registry()
        mounted = registry.snapshot()
        fresh = cluster.node("node0").provider.platform.metrics.snapshot()
        assert {
            k.split(".", 1)[1]: v
            for k, v in mounted.items()
            if k.startswith("node0.")
        } == fresh


def guest_refs(tenant):
    """Weak references to everything one placed tenant owns."""
    return {
        "vm": weakref.ref(tenant.handle.vm),
        "vaccel": weakref.ref(tenant.vaccel),
        "handle": weakref.ref(tenant.handle),
    }


def alive(refs):
    return sorted(name for name, ref in refs.items() if ref() is not None)


@pytest.fixture
def no_cycle_collector():
    """Teardown must free a tenant by refcount alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_idle_node_engines(cluster):
    """The fleet never runs a node's platform engine, so it must hold nothing."""
    assert {n.name: n.provider.platform.engine.pending_events for n in cluster.nodes} == {
        n.name: 0 for n in cluster.nodes
    }


@pytest.mark.usefixtures("no_cycle_collector")
class TestTenantTeardown:
    """Once a tenant leaves through any lifecycle verb, its VM, vaccel and
    handle are freed and its node's platform engine holds no events."""

    def one_tenant_service(self):
        service, _trace = two_node_service()
        service._try_place(request(0, accel_type="MB"), 0)
        node = service.cluster.tenant_nodes["t00000"]
        return service, node, guest_refs(node.tenants["t00000"])

    def test_cluster_evict(self):
        service, _node, refs = self.one_tenant_service()
        service.cluster.evict("t00000")
        assert alive(refs) == []
        assert_idle_node_engines(service.cluster)

    def test_crash_displacement(self):
        service, node, refs = self.one_tenant_service()
        report = service.ops.crash(node.name, now=0)
        assert report.displaced == 1
        assert alive(refs) == []
        assert_idle_node_engines(service.cluster)

    def test_watchdog_quarantine(self):
        service, _node, refs = self.one_tenant_service()
        assert service.arm_watchdog("t00000", 0)
        service.engine.run()
        assert service.outcomes == {0: "failed_by_fault"}
        assert alive(refs) == []

    def test_migrate_frees_the_source_then_the_destination(self):
        service, source, refs = self.one_tenant_service()
        outcome = service.ops.migrate("t00000", now=0)
        assert outcome.ok
        assert alive(refs) == []
        destination = service.cluster.tenant_nodes["t00000"]
        assert destination is not source
        refs = guest_refs(destination.tenants["t00000"])
        service.cluster.evict("t00000")
        assert alive(refs) == []
        assert_idle_node_engines(service.cluster)

    def test_served_fleet_leaves_every_node_engine_empty(self):
        cluster = FleetCluster.build(8, max_oversub=2)
        service = FleetService(
            cluster, make_policy("best-fit"), admission=AdmissionConfig(queue_limit=16)
        )
        trace = TrafficGenerator(
            TrafficProfile(load=1.5), fleet_slots=cluster.total_slots, seed=7
        ).generate(2500)
        result = service.serve(trace)
        assert result.summary()["placements"] > 2000
        assert_idle_node_engines(cluster)


class TestEvictContract:
    """ISSUE 4: eviction is a typed contract the failover path rides."""

    def test_node_evict_returns_typed_placement(self):
        from repro.fleet import EvictedPlacement

        node = small_node()
        node.place("a", "AES")
        placement = node.evict("a")
        assert isinstance(placement, EvictedPlacement)
        assert placement.tenant == "a"
        assert placement.accel_type == "AES"
        assert placement.node_name == "n0"
        assert placement.oversubscribed is False

    def test_unknown_tenant_raises_typed_error(self):
        from repro.errors import UnknownTenantError

        node = small_node()
        with pytest.raises(UnknownTenantError) as node_err:
            node.evict("ghost")
        assert node_err.value.tenant == "ghost"
        # Back-compat: the typed error still is a ConfigurationError.
        assert isinstance(node_err.value, ConfigurationError)
        cluster = FleetCluster([small_node()])
        with pytest.raises(UnknownTenantError):
            cluster.evict("ghost")

    def test_cluster_crash_displaces_then_marks_dead(self):
        from repro.fleet import NodeHealth

        cluster = policy_cluster()
        # Cluster-level displacement semantics: use the internal mutation
        # directly (the public, session-aware path is FleetOps.crash).
        displaced = cluster._crash_node("A")
        assert sorted(p.tenant for p in displaced) == ["m1", "m2"]
        assert all(p.node_name == "A" for p in displaced)
        node_a = cluster.node("A")
        assert node_a.health is NodeHealth.DEAD
        assert node_a.resident == 0
        assert not node_a.can_place("MB")
        # place() never routes to the dead node.
        placed = cluster.place("x", "MB", make_policy("first-fit"))
        assert placed is not None and placed[0].name == "B"
        cluster.recover_node("A")
        assert cluster.node("A").health is NodeHealth.HEALTHY
        assert cluster.health_report() == {"A": "healthy", "B": "healthy"}

    def test_unknown_node_lookup_rejected(self):
        cluster = policy_cluster()
        with pytest.raises(ConfigurationError):
            cluster.node("Z")


def later(requests, by_ps):
    """The same trace as fresh requests arriving ``by_ps`` later."""
    count = len(requests)
    return [
        dataclasses.replace(
            r,
            request_id=r.request_id + count,
            tenant=f"t{r.request_id + count:05d}",
            arrival_ps=r.arrival_ps + by_ps,
        )
        for r in requests
    ]


def two_node_service(observer=None):
    cluster = FleetCluster.build(2, max_oversub=2)
    service = FleetService(cluster, make_policy("best-fit"), observer=observer)
    trace = TrafficGenerator(
        TrafficProfile(load=0.9), fleet_slots=cluster.total_slots, seed=1
    ).generate(20)
    return service, trace


def assert_one_clock(service, result):
    # Utilization integrates over the serving clock, so all three are the
    # time of the last event — unless the clock ever ran backwards.
    assert result.span_ps == service.now == service.metrics._span_ps


class TestOneEventKernel:
    """The serving loop runs on ``sim.Engine``: no second heap, clock,
    sequence counter or dispatch chain, and the engine's rules apply."""

    def test_fleet_clock_is_monotone(self):
        past_ops = []

        class PastOp(FleetObserver):
            def on_outcome(self, request, outcome, now):
                with pytest.raises(SimulationError, match="cannot schedule at"):
                    service.schedule_op(now - 1, "cordon", node_name="node0")
                past_ops.append(now)

        service, trace = two_node_service(PastOp())
        first = service.serve(trace)
        assert_one_clock(service, first)
        assert len(past_ops) == first.requests == 20  # raised at every call
        ended_ps = service.now
        assert trace[0].arrival_ps < ended_ps

        # Events before the clock are refused at the call, never rewound to.
        stale = later(trace, 0)
        with pytest.raises(SimulationError, match="cannot schedule at"):
            service.serve(stale)
        with pytest.raises(SimulationError, match="cannot schedule at"):
            service.submit(stale[0])
        assert service.now == ended_ps
        assert service.engine.pending_events == 0

        # Serving on from where the clock stands is legal and cumulative.
        second = service.serve(later(trace, ended_ps))
        assert second.requests == 40 and len(second.outcomes) == 40
        assert service.now > ended_ps
        assert_one_clock(service, second)

    def test_there_is_no_second_kernel(self):
        service, trace = two_node_service()
        service.serve(trace)
        assert isinstance(service.engine, repro.sim.Engine)
        assert not hasattr(repro.fleet.admission, "heapq")
        for name in ("_heap", "_seq", "_now"):
            assert not hasattr(service, name), name
        assert not [name for name in dir(service) if name.startswith("_run")]
        with pytest.raises(AttributeError):
            service.now = 0  # read-only: the clock is the engine's

    def test_same_picosecond_events_dispatch_in_insertion_order(self):
        # At instant T three events meet: B's arrival (on the heap since
        # serve()), A's departure (pushed onto the heap by A's arrival,
        # for T) and an op B's arrival handler schedules *at now*.
        # Insertion order wins: the departure was pushed before the op, so
        # it dispatches first.
        log = []
        pending_at_t = []

        class Recorder(FleetObserver):
            def on_placed(self, request, now, latency_ps, replaced):
                log.append(("placed", request.tenant, now))
                if request.tenant == "t00001":
                    service.schedule_op(now, "cordon", node_name="solo")
                    pending_at_t.extend(
                        (time_ps, args[0])
                        for time_ps, _seq, _fn, args in service.engine.peek_prefix(2)
                    )

            def on_outcome(self, request, outcome, now):
                log.append((outcome, request.tenant, now))

            def on_op(self, verb, report, now):
                log.append(("op", verb, now))

        cluster = FleetCluster(
            [FleetNode(NodeSpec.of("solo", ("AES",)), max_oversub=2)]
        )
        service = FleetService(cluster, make_policy("first-fit"), observer=Recorder())
        t = us(1) + service.admission.placement_cost_ps + ms(1)
        service.serve(
            [
                request(0, arrival_ps=us(1), session_ps=ms(1)),  # departs at T
                request(1, arrival_ps=t, session_ps=ms(1)),
            ]
        )
        assert pending_at_t == [(t, "departure"), (t, "ops")]
        assert log[1:4] == [
            ("placed", "t00001", t),
            ("completed", "t00000", t),
            ("op", "cordon", t),
        ]

    def test_fleet_engine_stays_out_of_traces(self):
        # Same trace processes as before the loop moved onto an Engine:
        # one per node platform, ``fleet`` and ``faults`` — the fleet's own
        # engine allocates no pid and emits no engine.run span.
        from repro.faults import resolve_plan
        from repro.telemetry.tracer import install_tracer, uninstall_tracer

        tracer = install_tracer()
        try:
            service, trace = two_node_service()
            service.install_faults(resolve_plan("crash-quick"))
            service.serve(trace)
            events = tracer.export_events()
        finally:
            uninstall_tracer()
        processes = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert sorted(processes.values()) == [
            "faults", "fleet", "platform1 (optimus)", "platform2 (optimus)"
        ]
        node_pids = {pid for pid, name in processes.items() if "platform" in name}
        assert not [
            e for e in events
            if e["name"] == "engine.run" and e["pid"] not in node_pids
        ]
