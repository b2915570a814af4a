"""The slot ledger against its oracles.

* unit tests of :class:`repro.cloud.slots.SlotLedger` (the paper's slot
  rule, the incremental counters, ``matches`` as a corruption detector);
* a Hypothesis state machine driving a real :class:`FleetNode` and its
  :class:`ShadowNode` twin through random operation sequences, checking
  after every step that the ledger equals a recount of the hypervisor,
  that real and shadow agree, and that every read equals the scanning
  formulation the ledger replaced;
* a spy pinning the deterministic proxy behind the speed-up: serving
  builds no slot list per call — the index is built once per
  :class:`FpgaConfiguration`.
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
from repro.fleet.node import FleetNode, NodeHealth, NodeSpec
from repro.parallel.shadow import ShadowNode

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


def test_serving_builds_no_slot_lists(monkeypatch):
    """A 300-request serve rebuilds no per-call slot list: the static index
    is built once per FpgaConfiguration and the hot path reads it."""
    from repro.fleet import (
        AdmissionConfig,
        FleetCluster,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        make_policy,
    )

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

    cluster = FleetCluster.build(4, max_oversub=2)
    assert calls == {"index": 4, "copies": 0}
    service = FleetService(
        cluster, make_policy("best-fit"), admission=AdmissionConfig(queue_limit=16)
    )
    requests = TrafficGenerator(
        TrafficProfile(load=1.5), fleet_slots=cluster.total_slots, seed=6
    ).generate(300)
    result = service.serve(requests)
    assert result.summary()["placements"] > 0
    assert calls == {"index": 4, "copies": 0}
    for node in cluster.nodes:
        node.check_ledger()
