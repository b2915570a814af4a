"""Tests for ``repro.serve``: traces, the gateway, SLO admission.

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

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __main__ as cli
from repro.envelope import canonical_json
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import (
    ADMIT,
    AdmissionDecision,
    AdmissionPolicy,
    FleetCluster,
    FleetService,
    make_policy,
    open_fleet,
)
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
from repro.sim.clock import ms, us


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


def canonical_digest(trace):
    """The digest as it was first defined: the canonical JSON of the whole
    ``to_dict()``, built in memory and hashed at once."""
    return hashlib.sha256(canonical_json(trace.to_dict()).encode()).hexdigest()[:16]


_TEXT = st.text(max_size=6)  # any code point: escapes, quotes, non-ASCII


@st.composite
def traces(draw):
    count = draw(st.integers(1, 12))
    records = [
        SessionRecord(
            session_id=index,
            tenant=draw(_TEXT),
            tenant_class=draw(_TEXT),
            accel_type=draw(_TEXT),
            arrival_ps=draw(st.integers(0, 2**63)),
            session_ps=draw(st.integers(1, 2**63)),
            working_set=draw(st.integers(0, 2**40)),
            after=draw(st.none() | st.integers(0, index - 1)) if index else None,
        )
        for index in range(count)
    ]
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    return ArrivalTrace(records, name=draw(_TEXT), seed=seed)


class TestTraceDigestOracle:
    """The streamed digest hashes the same bytes as the in-memory form."""

    @pytest.mark.parametrize("sessions", [1, 1023, 1024, 1025, 2500])
    def test_synthetic_traces_around_the_batch_size(self, sessions):
        trace = make_trace(sessions=sessions)
        assert trace.digest() == canonical_digest(trace)

    def test_non_ascii_quotes_and_no_seed(self):
        trace = ArrivalTrace(
            [SessionRecord(0, 'té"n\\ant☃', "göld", "A\tES", 0, 1)],
            name='na"me é\U0001f600',
            seed=None,
        )
        assert trace.digest() == canonical_digest(trace)
        assert '\\u00e9' in canonical_json(trace.to_dict())  # ensure_ascii holds

    def test_one_record_trace(self):
        trace = ArrivalTrace([SessionRecord(0, "t0", "gold", "AES", 10, 100)], seed=3)
        assert trace.digest() == canonical_digest(trace)

    def test_json_and_csv_round_trips(self, tmp_path):
        trace = make_trace(sessions=1100, followup_prob=0.5)
        for path in (
            trace.write_json(tmp_path / "t.json"),
            trace.write_csv(tmp_path / "t.csv"),
        ):
            loaded = ArrivalTrace.load(path)
            assert loaded.digest() == canonical_digest(loaded)
        assert ArrivalTrace.load(tmp_path / "t.json").digest() == trace.digest()

    @settings(max_examples=150)
    @given(trace=traces(), batch=st.integers(1, 5))
    def test_any_records_at_any_batch_size(self, trace, batch):
        from unittest import mock

        import repro.serve.trace

        with mock.patch.object(repro.serve.trace, "_DIGEST_BATCH", batch):
            assert trace.digest() == canonical_digest(trace)


_GOOD_RECORD = {
    "session_id": 0, "tenant": "t0", "tenant_class": "gold", "accel_type": "AES",
    "arrival_ps": 10, "session_ps": 100, "working_set": 0, "after": None,
}


def _json_trace(records):
    return json.dumps({"format": "repro-serve-trace/v1", "records": records})


#: file name -> (text, what the typed error must name).  Each of these
#: used to escape ``serve --arrivals`` as a raw traceback.
MALFORMED_TRACES = {
    "top_level_list.json": ("[]", "not a serve trace"),
    "no_records.json": ('{"format": "repro-serve-trace/v1"}', "records"),
    "records_not_list.json": (_json_trace(5), "records"),
    "record_not_object.json": (_json_trace([7]), "record 0"),
    "missing_accel_type.json": (
        _json_trace(
            [_GOOD_RECORD, {k: v for k, v in _GOOD_RECORD.items() if k != "accel_type"}]
        ),
        "record 1: missing field 'accel_type'",
    ),
    "arrival_soon.json": (
        _json_trace([{**_GOOD_RECORD, "arrival_ps": "soon"}]),
        "record 0: field 'arrival_ps'",
    ),
    "seed_text.json": (
        json.dumps({"format": "repro-serve-trace/v1", "seed": "x",
                    "records": [_GOOD_RECORD]}),
        "field 'seed'",
    ),
    "arrival_soon.csv": (
        ",".join(_GOOD_RECORD) + "\n0,t0,gold,AES,soon,100,0,\n",
        "record 0: field 'arrival_ps'",
    ),
    "after_text.csv": (
        ",".join(_GOOD_RECORD) + "\n0,t0,gold,AES,10,100,0,\n1,t0,gold,AES,5,100,0,x\n",
        "record 1: field 'after'",
    ),
    "huge_field.csv": (
        ",".join(_GOOD_RECORD) + "\n0,t0,gold," + "A" * 140_000 + ",10,100,0,\n",
        "unreadable CSV trace",
    ),
    "short_row.csv": (
        ",".join(_GOOD_RECORD) + "\n0,t0,gold\n",
        "record 0: missing field 'accel_type'",
    ),
}


class TestMalformedTraces:
    @pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
    def test_load_raises_a_typed_error_naming_record_and_field(self, name, tmp_path):
        text, names = MALFORMED_TRACES[name]
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigurationError) as caught:
            ArrivalTrace.load(path)
        assert names in str(caught.value)

    @pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
    def test_cli_exits_2_without_a_traceback(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(MALFORMED_TRACES[name][0])
        code = cli.main(["serve", "--arrivals", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("serve: error: ")
        assert "Traceback" not in captured.err

    def test_binary_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_bytes(b"\xff\xfe\x00binary")
        with pytest.raises(ConfigurationError, match="cannot read trace"):
            ArrivalTrace.load(path)

    #: Anything JSON can put in a field, plus CSV-ish strings.
    _junk = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
    )

    @settings(max_examples=300)
    @given(
        index=st.integers(0, 5),
        field=st.sampled_from(sorted(_GOOD_RECORD) + ["__record__"]),
        value=_junk,
        as_csv=st.booleans(),
    )
    def test_one_mutated_field_loads_or_raises_configuration_error(
        self, index, field, value, as_csv
    ):
        payload = make_trace(sessions=6).to_dict()
        if field == "__record__":
            payload["records"][index] = value
        else:
            payload["records"][index][field] = value
        try:
            if as_csv:
                text = io.StringIO()
                writer = csv.DictWriter(text, list(_GOOD_RECORD), extrasaction="ignore")
                writer.writeheader()
                writer.writerows(r for r in payload["records"] if isinstance(r, dict))
                ArrivalTrace._from_csv_text(text.getvalue(), name="mutated")
            else:
                ArrivalTrace.from_dict(json.loads(json.dumps(payload)))
        except ConfigurationError:
            pass


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


#: sha256 of canonical-JSON ``GatewayResult.to_dict()``, recorded at the
#: parent of the change that made chains continuations on the service heap
#: (then: one coroutine per chain on a nested event loop).
PINNED_RESULTS = {
    # (load, followup_prob, sessions, seed) -> digest
    (1.5, 0.3, 600, 7): "490e044aa1184cfb501e98f7bce0aee6e9d4f87f8890461fa8d06fa54c976c1f",
    # Overloaded: 160 of 800 sessions abandoned behind shed predecessors.
    (3.0, 0.5, 800, 11): "e8c80c7f7a5b4c6f4b171b21e7fc07f7d85e0935d14b3f67984a26d2342a22eb",
}


class _ShedTenantB(AdmissionPolicy):
    def decide(self, request, now, service):
        return AdmissionDecision("shed", "slo_shed") if request.tenant == "b" else ADMIT


def two_chain_gateway(gateway_class=Gateway):
    """Chain a = [a0, a1], chain b = [b0, b1, b2] on one node; b0 is shed.

    a0 departs at 1 ms + 50 us placement + 2 ms = 3.05 ms and a1's think
    time is 1 us — far shorter than the gap to the next event, b0's
    arrival at 10 ms.
    """
    trace = ArrivalTrace(
        [
            SessionRecord(0, "a", "gold", "AES", ms(1), ms(2)),
            SessionRecord(1, "a", "gold", "AES", us(1), ms(2), after=0),
            SessionRecord(2, "b", "gold", "AES", ms(10), ms(2)),
            SessionRecord(3, "b", "gold", "AES", us(1), ms(2), after=2),
            SessionRecord(4, "b", "gold", "AES", us(1), ms(2), after=3),
        ]
    )
    service = FleetService(
        FleetCluster.build(1), make_policy("best-fit"), admission_policy=_ShedTenantB()
    )
    return service, gateway_class(service, trace)


class TestChainContinuation:
    @pytest.mark.parametrize("shards,lookahead", [(1, 0), (2, 0), (2, 8)])
    @pytest.mark.parametrize("workload", sorted(PINNED_RESULTS))
    def test_result_digest_is_pinned_on_every_executor(
        self, workload, shards, lookahead
    ):
        load, followup_prob, sessions, seed = workload
        with open_fleet(3, shards=shards, lookahead=lookahead) as cluster:
            trace = synthesize(
                ServeProfile(load=load, followup_prob=followup_prob),
                sessions=sessions,
                fleet_slots=cluster.total_slots,
                seed=seed,
            )
            service = FleetService(
                cluster, make_policy("best-fit"), admission_policy=SloBudgetPolicy()
            )
            result = Gateway(service, trace).run()
        digest = hashlib.sha256(canonical_json(result.to_dict()).encode()).hexdigest()
        assert digest == PINNED_RESULTS[workload]

    def test_follow_up_arrives_at_the_next_event_boundary(self):
        service, gateway = two_chain_gateway()
        result = gateway.run()
        # a1 arrives when the loop next turns (b0's arrival at 10 ms), not
        # at completion + think = 3.051 ms: every pinned digest was
        # recorded under this rule.
        assert service.metrics.trace == [
            f"{ms(1)} a AES -> node0/slot0 spatial wait={us(50)}",
            f"{ms(10)} b AES -> rejected (slo_shed)",
            f"{ms(10)} a AES -> node0/slot0 spatial wait={us(50)}",
        ]
        # The shed root takes its whole tail with it.
        assert result.serve.outcomes == {
            0: "completed", 1: "completed", 2: "rejected_slo_shed",
        }
        assert (result.submitted, result.abandoned) == (3, 2)
        assert result.counters["abandoned"] == 2

    def test_a_dropped_outcome_is_not_silent(self):
        class DropsOneOutcome(Gateway):
            def on_outcome(self, request, outcome, now):
                if request.request_id != 1:
                    super().on_outcome(request, outcome, now)

        _, gateway = two_chain_gateway(DropsOneOutcome)
        with pytest.raises(SimulationError, match="1 session chains never resolved"):
            gateway.run()

    def test_a_failing_continuation_surfaces_at_its_event(self):
        class FollowUpFails(Gateway):
            def connect(self, chain, position, arrival_ps):
                if position:
                    raise RuntimeError("follow-up refused")
                super().connect(chain, position, arrival_ps)

        service, gateway = two_chain_gateway(FollowUpFails)
        with pytest.raises(RuntimeError, match="follow-up refused"):
            gateway.run()
        # Raised from the loop at the boundary that ran the continuation
        # (b0's arrival), before that event dispatched — not after the run.
        assert service.outcomes == {0: "completed"}

    def test_a_gateway_runs_once(self):
        _, gateway = two_chain_gateway()
        gateway.run()
        with pytest.raises(SimulationError, match="already ran"):
            gateway.run()

    def test_the_serving_stack_has_one_event_loop(self):
        # Structural pin (beside ``FleetService.__subclasses__() == []`` in
        # test_parallel.py): nothing the serving stack imports brings in a
        # second scheduler.  A fresh interpreter, because pytest's own
        # plugins may import asyncio.
        probe = (
            "import sys, repro.serve, repro.fleet, repro.parallel, repro.analytic, "
            "repro.scenario, repro.__main__; sys.exit('asyncio' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", probe], timeout=120).returncode == 0


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
            capsys, *SERVE_ARGS, "--save-arrivals", str(path)
        )
        assert code == 0
        code, replayed = run_cli(
            capsys, "serve", "--quick", "--json", "--arrivals", str(path)
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
