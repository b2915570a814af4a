"""Capacity planner: exact-regime equivalence, determinism, CLI wiring.

The analytic capacity planner's contract has two tiers: in the
*uncontended* regime its answers are not approximations — they are the
DES trajectory computed in closed form, and these tests pin exact
equality; in the *contended* regime the fluid model is validated against
the DES separately (``tests/test_analytic_validation.py``).  Alongside:
the traffic-array fast path must reproduce ``generate()`` row for row,
enabling SLO classes must not perturb the legacy RNG streams, and the
CLI ``--mode`` choices must be exactly the two capacity backends.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import __main__ as cli
from repro.analytic import (
    CAPACITY_MODES,
    CapacityConfig,
    capacity_des,
    plan_capacity,
    run_capacity,
    slot_capacity,
)
from repro.errors import ConfigurationError
from repro.experiments.harness import STACK_MODES, make_stack
from repro.fleet.cluster import FleetCluster
from repro.fleet.traffic import TrafficGenerator, TrafficProfile
from repro.serve.trace import DEFAULT_CLASS_MIX
from repro.sim.clock import ms


class TestTrafficArrays:
    def test_arrays_match_generate_row_for_row(self):
        profile = TrafficProfile(load=1.3, class_mix=dict(DEFAULT_CLASS_MIX))
        generator = TrafficGenerator(profile, fleet_slots=24, seed=13)
        requests = generator.generate(500)
        arrays = generator.generate_arrays(500)
        for index, request in enumerate(requests):
            assert request.arrival_ps == int(arrays["arrival_ps"][index])
            assert request.session_ps == int(arrays["session_ps"][index])
            assert request.accel_type == arrays["types"][
                int(arrays["type_index"][index])
            ]
            assert request.tenant_class == arrays["classes"][
                int(arrays["class_index"][index])
            ]

    def test_arrays_without_class_mix_are_classless(self):
        generator = TrafficGenerator(TrafficProfile(), fleet_slots=24, seed=1)
        arrays = generator.generate_arrays(50)
        assert arrays["classes"] == ["default"]
        assert not arrays["class_index"].any()

    def test_class_mix_never_perturbs_legacy_streams(self):
        # Class picks are drawn after the gap/type/session draws, so a
        # classless profile and a classed one share arrivals exactly.
        legacy = TrafficGenerator(TrafficProfile(), fleet_slots=24, seed=5)
        classed = TrafficGenerator(
            TrafficProfile(class_mix=dict(DEFAULT_CLASS_MIX)),
            fleet_slots=24,
            seed=5,
        )
        for old, new in zip(legacy.generate(300), classed.generate(300)):
            assert old.arrival_ps == new.arrival_ps
            assert old.session_ps == new.session_ps
            assert old.accel_type == new.accel_type
        assert {r.tenant_class for r in classed.generate(300)} <= set(
            DEFAULT_CLASS_MIX
        )

    def test_class_mix_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficProfile(class_mix={})
        with pytest.raises(ConfigurationError):
            TrafficProfile(class_mix={"gold": 0.0})


class TestSlotCapacity:
    def test_matches_cluster_build_for_any_node_count(self):
        for n_nodes in (1, 2, 3, 4, 7, 16):
            cluster = FleetCluster.build(n_nodes)
            expected = {}
            for node in cluster.nodes:
                for slot_type in set(node.configuration.slots):
                    expected[slot_type] = (
                        expected.get(slot_type, 0) + node.capacity(slot_type)
                    )
            assert slot_capacity(n_nodes) == expected


class TestExactRegime:
    CONFIG = CapacityConfig(tenants=2_000, nodes=4, load=0.6, seed=9, bootstrap=0)

    def test_exact_engine_reproduces_the_des_bit_for_bit(self):
        analytic = plan_capacity(self.CONFIG)
        des = capacity_des(self.CONFIG)
        assert analytic["engine"] == "exact"
        assert analytic["placements"] == des["placements"]
        assert analytic["rejections"] == des["rejections"]
        assert analytic["latency_ps"]["mean"] == des["latency_ps"]["mean"]
        assert analytic["latency_ps"]["p99"] == des["latency_ps"]["p99"]
        assert analytic["span_ps"] == des["span_ps"]
        for accel_type, utilization in analytic["utilization_by_type"].items():
            assert utilization == pytest.approx(
                des["utilization_by_type"][accel_type], rel=1e-12
            )
        for name, stats in analytic["classes"].items():
            assert stats["attainment"] == des["classes"][name]["attainment"] == 1.0

    def test_deterministic_envelope(self):
        first = plan_capacity(self.CONFIG)
        second = plan_capacity(self.CONFIG)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_week_horizon_stays_exact_and_filters_arrivals(self):
        week_ps = 7 * 24 * 3600 * 10**12
        # 96 slots x load 0.5 at one-minute sessions offers ~0.8
        # arrivals/s, so 700k tenants span ~10 days and the one-week
        # horizon genuinely truncates the trace.
        config = CapacityConfig(
            tenants=700_000,
            nodes=16,
            load=0.5,
            seed=2,
            mean_session_ps=ms(60_000),
            horizon_ps=week_ps,
            bootstrap=0,
        )
        envelope = plan_capacity(config)
        assert envelope["engine"] == "exact"
        assert envelope["requests"] < config.tenants  # horizon actually cut
        assert envelope["span_ps"] <= week_ps + ms(60_000) * 40
        assert envelope["rejection_rate"] == 0.0

    def test_bootstrap_cis_bracket_the_point_estimates(self):
        config = CapacityConfig(
            tenants=3_000, nodes=8, load=6.0, seed=7, bootstrap=100
        )
        envelope = plan_capacity(config)
        assert envelope["engine"] == "fluid"
        cis = envelope["latency_ci95_ps"]
        low, high = cis["mean_ps"]
        assert low <= envelope["latency_ps"]["mean"] <= high
        for name, stats in envelope["classes"].items():
            ci = stats["attainment_ci95"]
            assert ci[0] <= stats["attainment"] <= ci[1]
            assert stats["share"] == pytest.approx(
                DEFAULT_CLASS_MIX[name] / sum(DEFAULT_CLASS_MIX.values())
            )

    def test_empty_horizon_is_an_error(self):
        with pytest.raises(ConfigurationError):
            plan_capacity(
                CapacityConfig(tenants=10, nodes=2, load=0.5, horizon_ps=1)
            )


class TestModeSingleSourcing:
    def test_capacity_modes_are_the_two_backends_and_the_cli_choices(self, capsys):
        # Capacity backends are their own list, not the stack registry:
        # pass-through has no fleet to plan.
        assert CAPACITY_MODES == ("analytic", "optimus")
        with pytest.raises(SystemExit, match="0"):
            cli.main(["capacity", "--help"])
        assert "--mode {analytic,optimus}" in capsys.readouterr().out

    def test_make_stack_error_names_every_registered_mode(self):
        # The planner ("analytic") is a capacity backend, never a stack.
        assert STACK_MODES == ("optimus", "passthrough")
        with pytest.raises(ConfigurationError) as error:
            make_stack("warp-drive")
        for mode in STACK_MODES:
            assert mode in str(error.value)

    def test_run_capacity_rejects_passthrough_with_derived_modes(self):
        with pytest.raises(ConfigurationError) as error:
            run_capacity("passthrough", CapacityConfig(tenants=10, nodes=1))
        for mode in CAPACITY_MODES:
            assert mode in str(error.value)


class TestCapacityCli:
    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr()

    def test_json_envelope_shape(self, capsys):
        code, captured = self.run_cli(
            capsys,
            "capacity",
            "--tenants", "2000",
            "--nodes", "4",
            "--load", "0.6",
            "--no-goodput",
            "--json",
        )
        assert code == 0
        envelope = json.loads(captured.out)
        assert envelope["experiment"] == "capacity"
        assert envelope["params"]["mode"] == "analytic"
        results = envelope["results"]
        assert results["engine"] == "exact"
        assert set(results["rejections"]) == {
            "queue_full", "retries_exhausted", "unsupported",
        }
        assert set(results["classes"]) == set(DEFAULT_CLASS_MIX)

    def test_des_mode_emits_the_same_envelope_shape(self, capsys):
        code, captured = self.run_cli(
            capsys,
            "capacity",
            "--mode", "optimus",
            "--tenants", "500",
            "--nodes", "2",
            "--load", "0.6",
            "--no-goodput",
            "--json",
        )
        assert code == 0
        des = json.loads(captured.out)["results"]
        code, captured = self.run_cli(
            capsys,
            "capacity",
            "--tenants", "500",
            "--nodes", "2",
            "--load", "0.6",
            "--no-goodput",
            "--json",
        )
        analytic = json.loads(captured.out)["results"]
        assert set(des) == set(analytic)
        # Uncontended: the two backends agree on the numbers too.
        assert des["placements"] == analytic["placements"]
        assert des["latency_ps"] == analytic["latency_ps"]

    def test_des_probe_sees_every_placement_and_the_envelope_is_pinned(
        self, capsys
    ):
        # capacity_des records latency through the serving loop's observer
        # slot (it used to subclass FleetService).  Overloaded on purpose:
        # placements < requests, so "every placement, nothing else" bites.
        code, captured = self.run_cli(
            capsys,
            "capacity",
            "--mode", "optimus",
            "--tenants", "600",
            "--nodes", "2",
            "--load", "3.0",
            "--seed", "5",
            "--no-goodput",
            "--json",
        )
        assert code == 0
        envelope = json.loads(captured.out)
        results = envelope["results"]
        observed = sum(c["expected_placed"] for c in results["classes"].values())
        assert observed == results["placements"] == 519.0 < results["requests"]
        # The envelope the subclass-based probe emitted (PR 12), minus the
        # one field that depends on what else this process calibrated.
        del results["calibration_digest"]
        canonical = json.dumps(envelope, sort_keys=True).encode()
        assert hashlib.sha256(canonical).hexdigest() == (
            "93b945427580ccef079903f684a35ac457ac810e71abefc6edff7d9b48bcc86c"
        )

    def test_passthrough_mode_is_a_usage_error(self, capsys):
        # A stack mode, not a capacity backend: argparse refuses it.
        with pytest.raises(SystemExit) as error:
            cli.main(["capacity", "--mode", "passthrough", "--tenants", "10"])
        assert error.value.code == 2
        assert "invalid choice: 'passthrough'" in capsys.readouterr().err

    def test_unknown_mode_is_rejected_by_argparse_choices(self, capsys):
        # --mode choices come from CAPACITY_MODES: the usage error argparse
        # prints must name both backends, nothing hand-listed.
        with pytest.raises(SystemExit) as error:
            cli.main(["capacity", "--mode", "warp-drive"])
        assert error.value.code == 2
        captured = capsys.readouterr()
        for mode in CAPACITY_MODES:
            assert mode in captured.err
