"""Tests for ``repro.serve``: traces, the asyncio gateway, SLO admission.

The serving layer's load-bearing guarantees:

* **replay determinism** — one trace+seed produces byte-identical JSON
  envelopes, run to run and serial vs ``--shards N``;
* **SLO admission beats queue depth** — at equal offered load the
  budget-shedding policy achieves strictly higher in-budget p99
  attainment in every class, and holds classes inside budgets that
  queue-depth-only admission blows through;
* **nothing is silently lost** — every submitted session reaches a
  typed outcome even when a ``FaultPlan`` crashes a node mid-serve.
"""

import json

import pytest

from repro import __main__ as cli
from repro.errors import ConfigurationError
from repro.fleet import FleetCluster, FleetService, make_policy
from repro.serve import (
    ArrivalTrace,
    AttainmentMonitor,
    Gateway,
    ServeProfile,
    SessionRecord,
    SloBudgetPolicy,
    SloClass,
    synthesize,
)
from repro.sim.clock import ms


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def make_trace(sessions=300, seed=7, slots=18, **profile_kwargs):
    profile = ServeProfile(
        load=profile_kwargs.pop("load", 1.5),
        followup_prob=profile_kwargs.pop("followup_prob", 0.3),
        **profile_kwargs,
    )
    return synthesize(profile, sessions=sessions, fleet_slots=slots, seed=seed)


def run_gateway(trace, *, nodes=3, admission_policy=None, plan=None):
    cluster = FleetCluster.build(nodes)
    service = FleetService(
        cluster, make_policy("best-fit"), admission_policy=admission_policy
    )
    if plan is not None:
        service.install_faults(plan)
    return Gateway(service, trace).run()


# -- the trace format ----------------------------------------------------------


class TestArrivalTrace:
    def test_synthesis_is_seed_deterministic(self):
        a, b = make_trace(seed=3), make_trace(seed=3)
        assert a.digest() == b.digest()
        assert [r for r in a] == [r for r in b]
        assert make_trace(seed=4).digest() != a.digest()

    def test_modulation_changes_the_trace_but_not_determinism(self):
        plain = make_trace(seed=5)
        shaped = make_trace(seed=5, diurnal_amplitude=0.5, burst_prob=0.05)
        assert shaped.digest() != plain.digest()
        assert shaped.digest() == make_trace(
            seed=5, diurnal_amplitude=0.5, burst_prob=0.05
        ).digest()

    def test_json_and_csv_round_trip(self, tmp_path):
        trace = make_trace(sessions=80)
        json_path = trace.write_json(tmp_path / "t.json")
        csv_path = trace.write_csv(tmp_path / "t.csv")
        from_json = ArrivalTrace.load(json_path)
        from_csv = ArrivalTrace.load(csv_path)
        assert from_json.digest() == trace.digest()
        assert [r for r in from_csv] == [r for r in trace]

    def test_closed_loop_chains_are_linear_and_cover_the_trace(self):
        trace = make_trace(sessions=200, followup_prob=0.5)
        chains = trace.chains()
        assert sum(len(c) for c in chains) == len(trace)
        assert any(len(c) > 1 for c in chains)
        for chain in chains:
            assert chain[0].after is None
            for parent, child in zip(chain, chain[1:]):
                assert child.after == parent.session_id
                assert child.tenant == parent.tenant

    def test_forward_chain_reference_is_rejected(self):
        with pytest.raises(ConfigurationError, match="does not precede"):
            ArrivalTrace(
                [
                    SessionRecord(0, "t0", "gold", "AES", 10, 100, after=1),
                    SessionRecord(1, "t0", "gold", "AES", 5, 100),
                ]
            )

    def test_wrong_format_marker_is_rejected(self):
        with pytest.raises(ConfigurationError, match="not a serve trace"):
            ArrivalTrace.from_dict({"format": "something-else", "records": []})


# -- gateway determinism -------------------------------------------------------


class TestGatewayDeterminism:
    def test_same_trace_same_result(self):
        trace = make_trace(sessions=250)
        first = run_gateway(trace, admission_policy=SloBudgetPolicy())
        second = run_gateway(trace, admission_policy=SloBudgetPolicy())
        assert first.to_dict() == second.to_dict()

    def test_every_submitted_session_has_a_typed_outcome(self):
        trace = make_trace(sessions=250)
        result = run_gateway(trace, admission_policy=SloBudgetPolicy())
        assert result.submitted + result.abandoned == len(trace)
        assert len(result.serve.outcomes) == result.submitted
        assert set(result.serve.outcomes.values()) <= {
            "completed",
            "replaced_completed",
            "failed_by_fault",
            "rejected_queue_full",
            "rejected_retries_exhausted",
            "rejected_unsupported",
            "rejected_slo_shed",
        }

    def test_closed_loop_abandons_chains_after_a_lost_session(self):
        trace = make_trace(sessions=300, load=3.0, followup_prob=0.5)
        result = run_gateway(trace, admission_policy=SloBudgetPolicy())
        # Overload sheds sessions, so some chains must have been cut short.
        outcomes = result.session_outcomes()
        assert outcomes.get("rejected_slo_shed", 0) > 0
        assert result.abandoned > 0


SERVE_ARGS = ("serve", "--quick", "--sessions", "400", "--json")


class TestServeCliDeterminism:
    def test_envelope_is_byte_identical_across_runs_and_shards(self, capsys):
        code, serial_one = run_cli(capsys, *SERVE_ARGS)
        assert code == 0
        code, serial_two = run_cli(capsys, *SERVE_ARGS)
        assert code == 0
        assert serial_one == serial_two
        code, sharded = run_cli(capsys, *SERVE_ARGS, "--shards", "2")
        assert code == 0
        assert sharded == serial_one

    def test_saved_trace_replays_to_the_same_results(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, synthesized = run_cli(
            capsys, *SERVE_ARGS, "--save-trace", str(path)
        )
        assert code == 0
        code, replayed = run_cli(
            capsys, "serve", "--quick", "--json", "--trace", str(path)
        )
        assert code == 0
        assert (
            json.loads(replayed)["results"]
            == json.loads(synthesized)["results"]
        )

    def test_envelope_reports_slo_attainment_fields(self, capsys):
        code, out = run_cli(capsys, *SERVE_ARGS)
        assert code == 0
        envelope = json.loads(out)
        slo = envelope["results"]["slo"]
        assert slo["policy"] == "slo-budget"
        for stats in slo["classes"].values():
            assert {"budget_ps", "attainment", "shed", "observed"} <= set(stats)
            assert 0.0 <= stats["attainment"] <= 1.0


# -- SLO-budget admission vs queue depth ---------------------------------------


class TestSloAdmission:
    @pytest.fixture(scope="class")
    def comparison(self):
        """The serve_slo study scenario: same trace, both admission arms."""
        from repro.experiments.serve_slo import serve_arm

        return {
            arm: serve_arm(arm, sessions=4000, load=2.0, nodes=3, seed=7)
            for arm in ("queue-depth", "slo-budget")
        }

    def test_attainment_strictly_higher_in_every_class(self, comparison):
        baseline = comparison["queue-depth"]["slo"]["classes"]
        budgeted = comparison["slo-budget"]["slo"]["classes"]
        for name in baseline:
            assert budgeted[name]["attainment"] > baseline[name]["attainment"]

    def test_slo_policy_holds_p99_in_budget_where_queue_depth_violates(
        self, comparison
    ):
        flipped = []
        for name, stats in comparison["slo-budget"]["slo"]["classes"].items():
            budget = stats["budget_ps"]
            slo_p99 = comparison["slo-budget"]["classes"][name]["admit_p99_ps"]
            base_p99 = comparison["queue-depth"]["classes"][name]["admit_p99_ps"]
            if base_p99 > budget and slo_p99 <= budget:
                flipped.append(name)
        assert flipped, "no class moved from out-of-budget to in-budget"

    def test_shedding_is_typed_not_silent(self, comparison):
        outcomes = comparison["slo-budget"]["sessions"]["outcomes"]
        assert outcomes.get("rejected_slo_shed", 0) > 0
        sessions = comparison["slo-budget"]["sessions"]
        assert (
            sessions["submitted"] + sessions["abandoned"]
            == comparison["slo-budget"]["trace"]["sessions"]
        )

    def test_degrade_tier_trims_sessions(self):
        classes = {
            "gold": SloClass(
                "gold",
                budget_ps=ms(20),
                degrade_ratio=0.01,
                session_scale=0.5,
                min_samples=5,
            )
        }
        trace = make_trace(sessions=400, load=2.5)
        result = run_gateway(
            trace, admission_policy=SloBudgetPolicy(classes)
        )
        attainment = result.slo["classes"]["gold"]
        assert attainment["degraded"] > 0

    def test_monitor_arm_behaves_like_no_policy(self):
        trace = make_trace(sessions=250)
        monitored = run_gateway(
            trace, admission_policy=AttainmentMonitor()
        )
        bare = run_gateway(trace)
        assert (
            monitored.serve.outcome_counts() == bare.serve.outcome_counts()
        )
        assert monitored.serve.span_ps == bare.serve.span_ps


# -- fault tolerance through the gateway ---------------------------------------


class TestServeUnderFaults:
    def test_no_accepted_session_lost_under_node_crash(self):
        from repro.faults import resolve_plan

        trace = make_trace(sessions=300, load=1.8)
        result = run_gateway(
            trace,
            admission_policy=SloBudgetPolicy(),
            plan=resolve_plan("crash-quick"),
        )
        # The crash displaced live sessions...
        assert result.serve.fault_log is not None
        outcomes = result.session_outcomes()
        assert (
            outcomes.get("replaced_completed", 0)
            + outcomes.get("failed_by_fault", 0)
            > 0
        )
        # ...yet the gateway accounted for every submitted session: the
        # run() invariant already raises if a chain never resolves, and
        # the outcome map covers exactly the submitted sessions.
        assert len(result.serve.outcomes) == result.submitted
        assert result.submitted + result.abandoned == len(trace)

    def test_faulted_run_is_deterministic(self):
        from repro.faults import resolve_plan

        trace = make_trace(sessions=300, load=1.8)
        first = run_gateway(
            trace,
            admission_policy=SloBudgetPolicy(),
            plan=resolve_plan("crash-quick"),
        )
        second = run_gateway(
            trace,
            admission_policy=SloBudgetPolicy(),
            plan=resolve_plan("crash-quick"),
        )
        assert first.to_dict() == second.to_dict()
