"""Fleet utilization from the cluster's occupancy integral, against its oracle.

``FleetMetrics.utilization_by_type`` reads the occupancy-time integral the
cluster's :class:`~repro.cloud.slots.OccupancyIndex` keeps per ledger
change.  The oracle is the algorithm it replaced, kept only here: before
every event, re-sum occupancy x elapsed over every offered type in float.
Below 2**53 ps x tenants that float sum is exact, so the two must agree
bit for bit — on the fleet trace, the gateway trace, chaos with crash,
recover, drain and migrate, a sharded fleet, and one cluster served twice.
"""

import dataclasses

import pytest

from repro.cloud import FpgaConfiguration
from repro.cloud.slots import OccupancyIndex, SlotLedger
from repro.faults import resolve_plan
from repro.fleet import (
    AdmissionConfig,
    AutoscaleConfig,
    FleetCluster,
    FleetMetrics,
    FleetService,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
    open_fleet,
)
from repro.serve import Gateway, ServeProfile, SloBudgetPolicy, synthesize
from repro.sim.clock import ms


class Resummation:
    """Utilization as it was computed before the index integrated it."""

    def __init__(self) -> None:
        self.integral = {}
        self.capacity = {}
        self.last = 0
        self.span = 0

    def sample(self, now, cluster) -> None:
        if not self.capacity:
            self.capacity = {t: cluster.capacity(t) for t in cluster.offered_types()}
        elapsed = now - self.last
        if elapsed > 0:
            for accel_type in self.capacity:
                self.integral[accel_type] = (
                    self.integral.get(accel_type, 0.0)
                    + cluster.occupancy(accel_type) * elapsed
                )
            self.span += elapsed
        self.last = now

    def utilization(self):
        if not self.span:
            return {t: 0.0 for t in self.capacity}
        return {
            accel_type: self.integral.get(accel_type, 0.0) / (self.span * capacity)
            for accel_type, capacity in sorted(self.capacity.items())
            if capacity
        }


@pytest.fixture
def oracles(monkeypatch):
    """One :class:`Resummation` per ``FleetMetrics``, sampled at the very
    point of the serving loop the metrics are."""
    by_metrics = {}
    sample = FleetMetrics.sample_utilization

    def observed(metrics, now_ps, cluster):
        by_metrics.setdefault(metrics, Resummation()).sample(now_ps, cluster)
        sample(metrics, now_ps, cluster)

    monkeypatch.setattr(FleetMetrics, "sample_utilization", observed)
    return by_metrics


def assert_bit_identical(metrics, oracle):
    assert max(oracle.integral.values()) < 2**53  # the float sum was exact
    measured = metrics.utilization_by_type()
    expected = oracle.utilization()
    assert {t: u.hex() for t, u in measured.items()} == {
        t: u.hex() for t, u in expected.items()
    }
    assert any(u > 0 for u in measured.values())
    assert metrics._span_ps == oracle.span


def fleet_requests(cluster, count, *, load=1.5, seed=6):
    return TrafficGenerator(
        TrafficProfile(load=load), fleet_slots=cluster.total_slots, seed=seed
    ).generate(count)


@pytest.mark.parametrize("policy", ["first-fit", "best-fit", "affinity"])
def test_fleet_trace(oracles, policy):
    cluster = FleetCluster.build(8, max_oversub=2)
    service = FleetService(
        cluster, make_policy(policy), admission=AdmissionConfig(queue_limit=16)
    )
    result = service.serve(fleet_requests(cluster, 1200))
    assert result.summary()["placements_temporal"] > 0
    assert_bit_identical(result.metrics, oracles[result.metrics])


def test_gateway_trace(oracles):
    cluster = FleetCluster.build(4)
    trace = synthesize(
        ServeProfile(load=1.5, followup_prob=0.3),
        sessions=1500,
        fleet_slots=cluster.total_slots,
        seed=7,
    )
    service = FleetService(
        cluster, make_policy("best-fit"), admission_policy=SloBudgetPolicy()
    )
    result = Gateway(service, trace).run()
    assert result.session_outcomes().get("rejected_slo_shed", 0) > 0
    assert_bit_identical(service.metrics, oracles[service.metrics])


def serve_chaos(cluster):
    """Crash, recover, degrade, drain (which migrates) and the autoscaler."""
    service = FleetService(cluster, make_policy("best-fit"))
    service.install_faults(resolve_plan("mixed"))
    service.install_autoscaler(AutoscaleConfig(standby_nodes=("node3",)))
    service.schedule_op(ms(4), "drain", node_name="node2")
    service.schedule_op(ms(6), "rebalance")
    return service.serve(fleet_requests(cluster, 500, load=1.2, seed=3))


def test_chaos_with_crash_recover_drain_and_migrate(oracles):
    result = serve_chaos(FleetCluster.build(4))
    faults = result.summary()["faults"]
    assert faults["injected_node_crash"] and faults["injected_node_recover"]
    assert faults["drains"] and faults["migrations"]
    assert_bit_identical(result.metrics, oracles[result.metrics])


def test_sharded_fleet(oracles):
    with open_fleet(4, shards=2, lookahead=4) as cluster:
        result = serve_chaos(cluster)
    assert_bit_identical(result.metrics, oracles[result.metrics])
    serial = serve_chaos(FleetCluster.build(4))
    assert result.metrics.utilization_by_type() == serial.metrics.utilization_by_type()


def test_one_cluster_served_twice(oracles):
    cluster = FleetCluster.build(4, max_oversub=2)
    policy = make_policy("best-fit")
    first = FleetService(cluster, policy).serve(fleet_requests(cluster, 400, seed=1))
    before = first.metrics.utilization_by_type()
    # A tenant left behind between the runs counts from the second run's start.
    assert cluster.place("left-behind", "AES", policy) is not None
    second = FleetService(cluster, policy).serve(fleet_requests(cluster, 400, seed=2))
    for result in (first, second):
        assert_bit_identical(result.metrics, oracles[result.metrics])
    assert first.metrics.utilization_by_type() == before  # settled, not live


def test_one_service_serving_a_later_trace(oracles):
    cluster = FleetCluster.build(4, max_oversub=2)
    service = FleetService(cluster, make_policy("best-fit"))
    service.serve(fleet_requests(cluster, 300, seed=1))
    later = [
        dataclasses.replace(request, arrival_ps=request.arrival_ps + service.now)
        for request in fleet_requests(cluster, 300, seed=2)
    ]
    result = service.serve(later)
    assert_bit_identical(result.metrics, oracles[result.metrics])


def test_the_integral_stays_exact_beyond_float_precision():
    """A tenant from 0 to past 2**62 ps: a float sum would round, the
    index's integer integral is the exact sum of occupancy x duration."""
    ledger = SlotLedger(FpgaConfiguration.synthesize(("AES", "AES", "SHA")))
    index = OccupancyIndex()
    ledger.report_to(index)
    exact, occupancy, last = 0, 0, 0
    for stamp, slot, delta in [
        (0, 0, 1), (2**62 + 3, 1, 1), (2**62 + 7, 0, -1), (2**62 + 8, 0, 1),
    ]:
        exact += occupancy * (stamp - last)
        occupancy, last = occupancy + delta, stamp
        index.now = stamp
        ledger.add(slot) if delta > 0 else ledger.remove(slot)
    until = 2**62 + 11
    exact += occupancy * (until - last)
    assert index.integral("AES", until) == exact
    assert index.integral("SHA", until) == 0
    assert float(exact) != exact  # beyond what a float sum can hold
