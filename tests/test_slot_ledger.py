"""The slot ledger against its oracles.

* unit tests of :class:`repro.cloud.slots.SlotLedger` (the paper's slot
  rule, the incremental counters, ``matches`` as a corruption detector);
* a Hypothesis state machine driving a real :class:`FleetNode` and its
  :class:`ShadowNode` twin through random operation sequences, checking
  after every step that the ledger equals a recount of the hypervisor,
  that real and shadow agree, and that every read equals the scanning
  formulation the ledger replaced;
* a second state machine one level up: a 4-node heterogeneous
  :class:`FleetCluster` and its :class:`ShadowCluster` twin under the
  fleet's verbs, checking after every step that the cluster's per-type
  index equals the sum over the node ledgers, that real and shadow agree,
  and that ``place`` refuses exactly when the scanning formulation does;
* spies pinning the deterministic proxies behind the speed-ups: serving
  builds no slot list per call (the index is built once per
  :class:`FpgaConfiguration`), a refused placement calls no policy, the
  utilization sample reads no node ledger, and neither grows with the
  fleet.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cloud import FpgaConfiguration
from repro.cloud.slots import SlotLedger
from repro.errors import SchedulerError
from repro.fleet import (
    AdmissionConfig,
    FleetCluster,
    FleetMetrics,
    FleetService,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
)
from repro.fleet.node import FleetNode, NodeHealth, NodeSpec
from repro.fleet.placement import POLICIES, PlacementPolicy
from repro.parallel.shadow import ShadowCluster, ShadowNode

SLOTS = ("AES", "AES", "AES", "SHA", "SHA")
TYPES = ("AES", "SHA", "MB")  # MB is not offered by SLOTS


def make_ledger(slots=SLOTS) -> SlotLedger:
    return SlotLedger(FpgaConfiguration.synthesize(slots))


class TestSlotLedger:
    def test_pick_is_least_occupied_ties_to_lowest_index(self):
        ledger = make_ledger()
        assert ledger.pick("AES") == 0
        ledger.add(0)
        assert ledger.pick("AES") == 1
        ledger.add(1)
        ledger.add(2)
        assert ledger.pick("AES") == 0  # all equal again: lowest index
        ledger.add(0)
        assert ledger.pick("AES") == 1
        assert ledger.pick("MB") is None

    def test_counters_follow_add_remove_move(self):
        ledger = make_ledger()
        assert (ledger.capacity("AES"), ledger.free_slots("AES")) == (3, 3)
        ledger.add(0)
        ledger.add(0)
        ledger.add(3)
        assert ledger.occupancy("AES") == 2 and ledger.free_slots("AES") == 2
        assert ledger.occupancy("SHA") == 1 and ledger.free_slots("SHA") == 1
        assert ledger.imbalance("AES") == (0, 1)
        ledger.move(0, 1)
        assert ledger.per_slot == [1, 1, 0, 1, 0]
        assert ledger.free_slots("AES") == 1 and ledger.imbalance("AES") is None
        ledger.remove(3)
        assert ledger.occupancy("SHA") == 0 and ledger.free_slots("SHA") == 2
        assert ledger.capacity("MB") == ledger.occupancy("MB") == 0
        assert not ledger.can_place("MB", 4)

    def test_headroom_honours_the_oversubscription_cap(self):
        ledger = make_ledger(("SHA",))
        assert ledger.headroom("SHA", 2) == 2
        ledger.add(0)
        assert ledger.can_place("SHA", 2) and not ledger.can_place("SHA", 1)
        assert not ledger.can_place("SHA", 2, oversubscribe=False)
        ledger.add(0)
        assert ledger.headroom("SHA", 2) == 0 and not ledger.can_place("SHA", 2)

    def test_removing_from_an_empty_slot_fails_loudly(self):
        with pytest.raises(ValueError):
            make_ledger().remove(0)

    def test_matches_detects_every_kind_of_drift(self):
        ledger = make_ledger()
        ledger.add(1)
        assert ledger.matches([0, 1, 0, 0, 0])
        assert not ledger.matches([1, 0, 0, 0, 0])
        ledger._occupancy["AES"] += 1  # a counter off its per-slot truth
        assert not ledger.matches([0, 1, 0, 0, 0])
        ledger._occupancy["AES"] -= 1
        ledger._free["SHA"] -= 1
        assert not ledger.matches([0, 1, 0, 0, 0])


class RealAndShadowNode(RuleBasedStateMachine):
    """One FleetNode and its ShadowNode twin under the same op sequence."""

    def __init__(self) -> None:
        super().__init__()
        self.real = FleetNode(NodeSpec.of("n0", SLOTS), max_oversub=2)
        self.ops = []
        self.shadow = ShadowNode(
            0, "n0", FpgaConfiguration.synthesize(SLOTS), max_oversub=2,
            emit=lambda index, op: self.ops.append(op),
        )
        self.serial = 0

    # -- operations ---------------------------------------------------------

    @initialize(warm=st.lists(st.sampled_from(SLOTS), min_size=3, max_size=10))
    def warm_up(self, warm):
        # Start part-full: temporal spills and gaps worth rebalancing need
        # several placements in a row (the unit tests cover the empty node).
        self.place(warm)

    @rule(accel_types=st.lists(st.sampled_from(SLOTS + ("MB",)), min_size=1, max_size=3))
    def place(self, accel_types):
        for accel_type in accel_types:
            self.place_one(accel_type)

    def place_one(self, accel_type):
        name = f"t{self.serial}"
        self.serial += 1
        if not self.real.can_place(accel_type):
            with pytest.raises(SchedulerError):
                self.real.place(name, accel_type)
            with pytest.raises(SchedulerError):
                self.shadow.place(name, accel_type)
            return
        tenant = self.real.place(name, accel_type)
        twin = self.shadow.place(name, accel_type)
        # What the shard worker verifies against the shadow's prediction.
        assert self.ops[-1] == (
            "place", (name, accel_type, tenant.physical_index, tenant.oversubscribed)
        )
        assert twin.physical_index == tenant.physical_index

    @precondition(lambda self: self.real.tenants)
    @rule(data=st.data())
    def evict(self, data):
        name = data.draw(st.sampled_from(sorted(self.real.tenants)))
        assert self.real.evict(name) == self.shadow.evict(name)

    @precondition(lambda self: self.real.tenants)
    @rule(data=st.data())
    def migrate_in_place(self, data):
        # checkpoint -> evict -> restore_tenant, as FleetOps.migrate does.
        name = data.draw(st.sampled_from(sorted(self.real.tenants)))
        checkpoint = self.real.checkpoint_tenant(name)
        assert self.real.evict(name) == self.shadow.evict(name)
        tenant = self.real.restore_tenant(checkpoint)
        twin = self.shadow.restore_tenant(checkpoint)
        assert twin.physical_index == tenant.physical_index
        assert twin.oversubscribed == tenant.oversubscribed

    @rule(vacate=st.none() | st.integers(0, len(SLOTS) - 1))
    def rebalance(self, vacate):
        # Emptying one slot outright is how a same-type occupancy gap of 2
        # (what rebalance exists to close) arises under least-loaded picks.
        for name, tenant in sorted(self.real.tenants.items()):
            if tenant.physical_index == vacate:
                assert self.real.evict(name) == self.shadow.evict(name)
        before = {name: t.physical_index for name, t in self.real.tenants.items()}
        moved = self.real.rebalance()
        # The shadow has no rebalance op (the sharded protocol never emits
        # one); mirror the moves the real node made through its ledger.
        mirrored = 0
        for name, tenant in self.real.tenants.items():
            if tenant.physical_index != before[name]:
                self.shadow.slots.move(before[name], tenant.physical_index)
                self.shadow.tenants[name].physical_index = tenant.physical_index
                mirrored += 1
        assert mirrored <= moved

    @precondition(lambda self: self.real.health is not NodeHealth.DEAD)
    @rule()
    def crash(self):
        # ClusterState._crash_node: evict residents in name order, then die.
        for node in (self.real, self.shadow):
            for name in sorted(node.tenants):
                node.evict(name)
            node.crash()

    @precondition(lambda self: self.real.health is NodeHealth.DEAD)
    @rule()
    def recover(self):
        self.real.recover()
        self.shadow.recover()

    @rule(on=st.booleans())
    def cordon(self, on):
        for node in (self.real, self.shadow):
            node.cordon() if on else node.uncordon()

    @precondition(lambda self: self.real.health is not NodeHealth.DEAD)
    @rule(factor=st.sampled_from((2.0, 4.0)))
    def degrade(self, factor):
        self.real.degrade(factor)
        self.shadow.degrade(factor)

    @rule()
    def restore_links(self):
        self.real.restore()
        self.shadow.restore()

    # -- what must hold after every step ----------------------------------------

    @invariant()
    def ledger_equals_a_recount_of_the_hypervisor(self):
        self.real.check_ledger()

    @invariant()
    def shadow_equals_real(self):
        assert self.shadow.slots == self.real.slots
        assert self.shadow.health is self.real.health
        assert self.shadow.cordoned == self.real.cordoned
        assert {
            name: (t.physical_index, t.oversubscribed)
            for name, t in self.shadow.tenants.items()
        } == {
            name: (t.physical_index, t.oversubscribed)
            for name, t in self.real.tenants.items()
        }

    @invariant()
    def reads_equal_the_scans_they_replaced(self):
        node = self.real
        physical = node.provider.hypervisor.physical
        for accel_type in TYPES:
            candidates = node.configuration.slots_of_type(accel_type)
            counts = [len(physical[i].vaccels) for i in candidates]
            assert node.capacity(accel_type) == len(candidates)
            assert node.occupancy(accel_type) == sum(counts)
            assert node.free_slots(accel_type) == counts.count(0)
            assert node.headroom(accel_type) == 2 * len(candidates) - sum(counts)
            expected_pick = (
                min(candidates, key=lambda i: len(physical[i].vaccels))
                if candidates
                else None
            )
            assert node.slots.pick(accel_type) == expected_pick
            for other in (node, self.shadow):
                assert other.can_place(accel_type) == (
                    node.health is not NodeHealth.DEAD
                    and bool(candidates)
                    and (0 in counts or 2 * len(candidates) > sum(counts))
                )


RealAndShadowNode.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestRealAndShadowNode = RealAndShadowNode.TestCase


# -- one level up: the cluster's fleet-wide index -----------------------------

#: ``(slots, max_oversub)`` per node: mixes and caps both differ.
FLEET = (
    (("AES", "AES", "SHA"), 1),
    (("SHA", "MB"), 2),
    (("AES", "MB", "MB"), 3),
    (("SHA", "AES"), 2),
)
FLEET_TYPES = ("AES", "SHA", "MB", "FIR")  # FIR is offered nowhere


def usable(cluster):
    """The nodes ``ClusterState.place`` shows a policy."""
    return [
        n for n in cluster.nodes if n.health is not NodeHealth.DEAD and not n.cordoned
    ]


class Refuse(PlacementPolicy):
    """Places nothing; records whether the cluster consulted it."""

    def __init__(self) -> None:
        self.asked = False

    def choose(self, nodes, accel_type):
        self.asked = True
        return None


class TwinCluster(ShadowCluster):
    """A shadow fleet whose checkpoints come from the real one, as the
    sharded coordinator's come from its workers."""

    real: FleetCluster

    def checkpoint_tenant(self, tenant_name):
        return self.real.checkpoint_tenant(tenant_name)


class RealAndShadowCluster(RuleBasedStateMachine):
    """A heterogeneous FleetCluster and its shadow twin under the fleet's verbs."""

    def __init__(self) -> None:
        super().__init__()
        self.real = FleetCluster(
            [
                FleetNode(NodeSpec.of(f"n{i}", slots), max_oversub=cap)
                for i, (slots, cap) in enumerate(FLEET)
            ]
        )
        self.shadow = TwinCluster(
            [
                ShadowNode(
                    i, f"n{i}", FpgaConfiguration.synthesize(slots), max_oversub=cap
                )
                for i, (slots, cap) in enumerate(FLEET)
            ]
        )
        self.shadow.real = self.real
        # Shadow first: its checkpoints read the real fleet, so every verb
        # must reach it while the real tenant is still where it was.
        self.clusters = (self.shadow, self.real)
        self.services = [
            FleetService(cluster, make_policy("first-fit")) for cluster in self.clusters
        ]
        self.direct = set()  # tenants placed on a node behind the cluster's back
        self.serial = 0

    def fresh_name(self) -> str:
        self.serial += 1
        return f"t{self.serial}"

    def both(self, verb, *args):
        """One FleetOps verb on shadow then real; returns both reports."""
        return [getattr(service.ops, verb)(*args) for service in self.services]

    def clear_direct(self):
        # FleetOps verbs move tenants through the cluster's own table; an
        # operator clears unmanaged tenants before using them.
        for cluster in self.clusters:
            for node in cluster.nodes:
                for name in sorted(self.direct & set(node.tenants)):
                    node.evict(name)
        self.direct.clear()

    # -- operations ---------------------------------------------------------

    @initialize(
        policy=st.sampled_from(sorted(POLICIES)),
        warm=st.lists(st.sampled_from(FLEET_TYPES[:3]), min_size=8, max_size=20),
    )
    def warm_up(self, policy, warm):
        # Start near the ceiling (20 placements fill every slot to its cap):
        # refusals are what the index answers.
        self.place(policy, warm)

    @rule(
        policy=st.sampled_from(sorted(POLICIES)),
        accel_types=st.lists(st.sampled_from(FLEET_TYPES), min_size=1, max_size=4),
    )
    def place(self, policy, accel_types):
        for accel_type in accel_types:
            name = self.fresh_name()
            landed = []
            for cluster in self.clusters:
                expected = make_policy(policy).choose(usable(cluster), accel_type)
                placed = cluster.place(name, accel_type, make_policy(policy))
                assert (placed is None) == (expected is None)
                if placed is not None:
                    assert placed[0] is expected
                    placed = (placed[0].name, placed[1].physical_index)
                landed.append(placed)
            assert landed[0] == landed[1]

    @rule(index=st.integers(0, len(FLEET) - 1), accel_type=st.sampled_from(FLEET_TYPES))
    def place_on_a_node_directly(self, index, accel_type):
        if not self.real.nodes[index].can_place(accel_type):
            return
        name = self.fresh_name()
        slots = {cluster.nodes[index].place(name, accel_type).physical_index
                 for cluster in self.clusters}
        assert len(slots) == 1
        self.direct.add(name)

    @precondition(lambda self: any(node.tenants for node in self.real.nodes))
    @rule(data=st.data())
    def evict(self, data):
        name = data.draw(
            st.sampled_from(sorted(n for node in self.real.nodes for n in node.tenants))
        )
        if name in self.direct:
            self.direct.discard(name)
            undone = [
                node.evict(name)
                for cluster in self.clusters
                for node in cluster.nodes
                if name in node.tenants
            ]
        else:
            undone = [cluster.evict(name) for cluster in self.clusters]
        assert undone[0] == undone[1]

    @precondition(lambda self: self.real.tenant_nodes)
    @rule(data=st.data(), index=st.integers(0, len(FLEET) - 1))
    def checkpoint_and_restore(self, data, index):
        name = data.draw(st.sampled_from(sorted(self.real.tenant_nodes)))
        checkpoint = self.real.checkpoint_tenant(name)
        if not self.real.nodes[index].can_place(checkpoint.accel_type):
            return
        slots = set()
        for cluster in self.clusters:
            cluster.evict(name)
            restored = cluster.restore_tenant(f"n{index}", checkpoint)
            slots.add(restored.physical_index)
        assert len(slots) == 1

    @precondition(lambda self: self.real.tenant_nodes)
    @rule(data=st.data(), policy=st.sampled_from(sorted(POLICIES)))
    def migrate(self, data, policy):
        name = data.draw(st.sampled_from(sorted(self.real.tenant_nodes)))
        for service in self.services:
            service.policy = make_policy(policy)
        shadow, real = self.both("migrate", name)
        assert shadow == real

    @rule(index=st.integers(0, len(FLEET) - 1))
    def drain(self, index):
        self.clear_direct()
        shadow, real = self.both("drain", f"n{index}")
        assert shadow == real

    @rule()
    def rebalance_fleet(self):
        self.clear_direct()
        shadow, real = self.both("rebalance")
        assert shadow == real

    @rule(index=st.integers(0, len(FLEET) - 1))
    def rebalance_node(self, index):
        real, shadow = self.real.nodes[index], self.shadow.nodes[index]
        before = {name: t.physical_index for name, t in real.tenants.items()}
        real.rebalance()
        # No shadow rebalance op exists; mirror the moves through its ledger.
        for name, tenant in real.tenants.items():
            if tenant.physical_index != before[name]:
                shadow.slots.move(before[name], tenant.physical_index)
                shadow.tenants[name].physical_index = tenant.physical_index

    @rule(index=st.integers(0, len(FLEET) - 1))
    def crash_or_recover(self, index):
        dead = self.real.nodes[index].health is NodeHealth.DEAD
        shadow, real = self.both("recover" if dead else "crash", f"n{index}")
        self.direct &= {n for node in self.real.nodes for n in node.tenants}
        if not dead:
            assert shadow == real

    @rule(index=st.integers(0, len(FLEET) - 1), on=st.booleans())
    def cordon(self, index, on):
        self.both("cordon" if on else "uncordon", f"n{index}")

    # -- what must hold after every step ----------------------------------------

    @invariant()
    def index_equals_the_scan_it_replaced(self):
        for cluster in self.clusters:
            cluster.check_index()
            for accel_type in FLEET_TYPES:
                assert cluster.occupancy(accel_type) == sum(
                    node.slots.occupancy(accel_type) for node in cluster.nodes
                )
        for node in self.real.nodes:
            node.check_ledger()

    @invariant()
    def shadow_equals_real(self):
        for shadow, real in zip(self.shadow.nodes, self.real.nodes):
            assert shadow.slots == real.slots
            assert shadow.health is real.health
            assert shadow.cordoned == real.cordoned
            assert {n: t.physical_index for n, t in shadow.tenants.items()} == {
                n: t.physical_index for n, t in real.tenants.items()
            }
        assert {t: n.name for t, n in self.shadow.tenant_nodes.items()} == {
            t: n.name for t, n in self.real.tenant_nodes.items()
        }

    @invariant()
    def the_index_refuses_only_what_the_scan_refuses(self):
        for cluster in self.clusters:
            nodes = usable(cluster)
            for accel_type in FLEET_TYPES:
                fits = {
                    policy().choose(nodes, accel_type) is not None
                    for policy in POLICIES.values()
                }
                assert len(fits) == 1  # the policies differ in where, not whether
                probe = Refuse()
                assert cluster.place("probe", accel_type, probe) is None
                if fits == {True}:
                    assert probe.asked  # never a false "definitely none"
                if len(nodes) == len(cluster.nodes):
                    assert probe.asked == (fits == {True})  # and exact when all serve


RealAndShadowCluster.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None, derandomize=True
)
TestRealAndShadowCluster = RealAndShadowCluster.TestCase


def admission_trace_service(n_nodes, requests=2500):
    """stackbench's ``fleet_admission`` trace (seed 0), on ``n_nodes``."""
    cluster = FleetCluster.build(n_nodes, max_oversub=2)
    service = FleetService(
        cluster, make_policy("best-fit"), admission=AdmissionConfig(queue_limit=16)
    )
    requests = TrafficGenerator(
        TrafficProfile(load=1.5), fleet_slots=cluster.total_slots, seed=6
    ).generate(requests)
    return service, requests


def test_serving_builds_no_slot_lists(monkeypatch):
    """A 300-request serve rebuilds no per-call slot list: the static index
    is built once per FpgaConfiguration and the hot path reads it."""
    calls = {"index": 0, "copies": 0}
    index_slots = FpgaConfiguration._index_slots
    slots_of_type = FpgaConfiguration.slots_of_type

    def counting_index(self):
        calls["index"] += 1
        return index_slots(self)

    def counting_copy(self, name):
        calls["copies"] += 1
        return slots_of_type(self, name)

    monkeypatch.setattr(FpgaConfiguration, "_index_slots", counting_index)
    monkeypatch.setattr(FpgaConfiguration, "slots_of_type", counting_copy)

    service, requests = admission_trace_service(4, requests=300)
    assert calls == {"index": 4, "copies": 0}
    result = service.serve(requests)
    assert result.summary()["placements"] > 0
    assert calls == {"index": 4, "copies": 0}
    for node in service.cluster.nodes:
        node.check_ledger()


def serve_counting_ledger_reads(monkeypatch, n_nodes):
    """Serve the trace; count placement attempts by result, ``policy.choose``
    calls, and the node-ledger reads (outermost calls only) by where they
    were made from."""
    service, requests = admission_trace_service(n_nodes)
    counts = {
        "placed": 0, "refused": 0, "choose": 0,
        "in_choose": 0, "in_sample": 0, "elsewhere": 0,
    }
    where = ["elsewhere"]

    def counted_from(place, fn):
        def wrapper(*args, **kwargs):
            where.append(place)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()

        return wrapper

    def counting_read(fn):
        nested = counted_from("ledger", fn)

        def read(*args, **kwargs):
            if where[-1] != "ledger":
                counts[where[-1]] += 1
            return nested(*args, **kwargs)

        return read

    for name in ("capacity", "occupancy", "free_slots", "headroom", "can_place"):
        monkeypatch.setattr(SlotLedger, name, counting_read(getattr(SlotLedger, name)))
    monkeypatch.setattr(
        FleetMetrics,
        "sample_utilization",
        counted_from("in_sample", FleetMetrics.sample_utilization),
    )
    choose = counted_from("in_choose", service.policy.choose)
    place = service.cluster.place

    def counting_choose(nodes, accel_type):
        counts["choose"] += 1
        return choose(nodes, accel_type)

    def counting_place(*args):
        placed = place(*args)
        counts["refused" if placed is None else "placed"] += 1
        return placed

    service.policy.choose = counting_choose
    service.cluster.place = counting_place
    service.serve(requests)
    served = dict(counts)
    service.cluster.check_index()  # the oracle scans; the serving loop did not
    return served


def test_a_refused_placement_and_the_utilization_sample_read_no_node(monkeypatch):
    """On the stackbench ``fleet_admission`` trace the policy runs once per
    placement — every refusal, over four in five attempts, is answered by
    the cluster's index — and sampling utilization reads no node ledger."""
    counts = serve_counting_ledger_reads(monkeypatch, 8)
    assert counts["refused"] > 4 * counts["placed"] > 0
    assert counts["choose"] == counts["placed"]
    assert counts["in_sample"] == 0


def test_ledger_reads_grow_with_the_fleet_only_inside_a_successful_choose(monkeypatch):
    """The same trace shape on 8 and on 32 nodes: outside ``policy.choose``
    each placement costs one read (the chosen node's admission check) and
    nothing else reads a ledger; what scales with the fleet is the successful
    choose alone, one or two passes over the nodes."""
    for n_nodes in (8, 32):
        with monkeypatch.context() as patch:
            counts = serve_counting_ledger_reads(patch, n_nodes)
        assert counts["refused"] > 0
        assert counts["choose"] == counts["placed"]
        assert counts["in_sample"] == 0
        assert counts["elsewhere"] == counts["placed"]
        passes = counts["in_choose"] / (counts["placed"] * n_nodes)
        assert 1 <= passes <= 2
