"""Tests for the ``python -m repro`` command-line entry point."""

import json
import sys
import types

import pytest

from repro import __main__ as cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestList:
    def test_plain_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "fig4" in out and "fleet_scaling" in out

    def test_no_command_means_list(self, capsys):
        assert run_cli(capsys) == run_cli(capsys, "list")

    def test_json_list_is_machine_readable(self, capsys):
        code, out = run_cli(capsys, "list", "--json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["experiment"] == "list" and envelope["params"] == {}
        registry = envelope["results"]
        assert set(registry) == set(cli.EXPERIMENTS)
        assert registry["fig4"]["module"] == "repro.experiments.fig4_overhead"
        assert registry["fig4"]["description"]


class TestRunExitCodes:
    @pytest.fixture
    def boom_experiment(self, monkeypatch):
        module = types.ModuleType("tests._boom_experiment")

        def run():
            raise RuntimeError("deliberate experiment failure")

        module.run, module.QUICK, module.CLAIMS = run, {}, ()
        monkeypatch.setitem(sys.modules, "tests._boom_experiment", module)
        monkeypatch.setitem(
            cli.EXPERIMENTS, "boom", ("tests._boom_experiment", "always fails")
        )

    def test_failing_experiment_exits_nonzero(self, capsys, boom_experiment):
        code, out = run_cli(capsys, "run", "boom")
        assert code == 1
        assert "FAILED" in out

    def test_missing_module_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli.EXPERIMENTS, "ghost", ("repro.experiments.does_not_exist", "nope")
        )
        code, out = run_cli(capsys, "run", "ghost")
        assert code == 1


class TestFleetCommand:
    def fleet_summary(self, capsys, *extra):
        code, out = run_cli(
            capsys, "fleet", "--nodes", "1", "--requests", "40",
            "--seed", "5", "--json", *extra,
        )
        assert code == 0
        envelope = json.loads(out)
        # Every --json mode shares one envelope shape.
        assert envelope["experiment"] == "fleet"
        assert envelope["params"]["requests"] == 40
        assert envelope["params"]["nodes"] == 1
        return envelope["results"]

    def test_fleet_json_summary(self, capsys):
        summary = self.fleet_summary(capsys)
        assert summary["requests"] == 40
        assert summary["placements"] + summary["rejections"] == 40
        assert summary["placement_latency"] is None or (
            summary["placement_latency"]["p95_ns"] >= 0
        )

    def test_fleet_seed_reproduces_trace_digest(self, capsys):
        first = self.fleet_summary(capsys)
        second = self.fleet_summary(capsys)
        assert first["trace_digest"] == second["trace_digest"]
        assert first == second


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default result cache at a throwaway directory.

    ``run`` caches whole experiments under ``--cache-dir`` (default
    ``.repro-cache`` in the cwd); without isolation a second pytest
    invocation would *hit* entries stored by the first and skip the
    experiment bodies these tests assert on.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def stub_experiment(monkeypatch):
    """A fast fake experiment returning a ResultTable (with one NaN cell)
    and declaring one claim it meets and one it misses."""
    from repro.experiments.harness import Claim, ResultTable

    module = types.ModuleType("tests._stub_experiment")

    def run():
        table = ResultTable("stub table", ["x", "y"])
        table.add("a", 1.5)
        table.add("b", float("nan"))
        print("human narration")
        return table

    module.run, module.QUICK = run, {}
    module.CLAIMS = (
        Claim("y at a", 1.5, lambda t: t.series("y")["a"], low=1.0, quick=True),
        Claim("rows", 3, lambda t: len(t.rows), low=3.0),
    )
    monkeypatch.setitem(sys.modules, "tests._stub_experiment", module)
    monkeypatch.setitem(cli.EXPERIMENTS, "stub", ("tests._stub_experiment", "stub"))


class TestRunJson:
    def test_run_json_envelope(self, capsys, stub_experiment):
        code = cli.main(["run", "stub", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        envelope = json.loads(captured.out)
        assert envelope["experiment"] == "stub"
        assert envelope["params"] == {"jobs": 1}
        assert envelope["results"]["title"] == "stub table"
        assert envelope["results"]["columns"] == ["x", "y"]
        assert envelope["results"]["rows"][0] == ["a", 1.5]
        assert envelope["results"]["rows"][1][1] is None  # NaN -> null
        # Narration must not pollute the machine-readable stream.
        assert "human narration" not in captured.out
        assert "human narration" in captured.err

    def test_quick_is_stamped_only_when_set(self, capsys, stub_experiment):
        # Envelopes from before ``run --quick`` existed keep their bytes.
        code = cli.main(["run", "stub", "--quick", "--no-cache", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["params"] == {
            "jobs": 1, "quick": True,
        }

    def test_claims_are_reported_on_stderr_without_changing_the_exit_code(
        self, capsys, stub_experiment
    ):
        code = cli.main(["run", "stub", "--no-cache", "--json"])
        captured = capsys.readouterr()
        assert code == 0  # a missed claim is reported, not an error
        assert "claim ok   y at a: 1.5 in [1, inf] (paper 1.5)" in captured.err
        assert "claim MISS rows: 2 in [3, inf] (paper 3)" in captured.err
        assert "claim" not in captured.out

    def test_profile_table_stays_off_the_json_stream(self, capsys, stub_experiment):
        # Regression: the cProfile table was printed to stdout after the
        # envelope, so ``--json --profile`` output was not JSON.
        code = cli.main(["run", "stub", "--no-cache", "--json", "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["experiment"] == "stub"
        assert "cumulative" in captured.err


class TestNoProcessWideMode:
    """The simulator has no ambient mode: the fast path is a per-platform
    ``PlatformParams`` field, never read from the environment."""

    def test_the_old_mode_variable_selects_nothing(
        self, capsys, stub_experiment, monkeypatch
    ):
        from repro.platform import PlatformParams

        # The environment variable that once selected the reference path,
        # spelled in pieces so the removed name appears nowhere in the tree.
        monkeypatch.setenv("_".join(["REPRO", "FAST", "PATH"]), "0")
        assert PlatformParams().fast_path is True
        code = cli.main(["run", "stub", "--no-cache", "--json"])
        envelope = json.loads(capsys.readouterr().out)
        assert code == 0 and envelope["params"] == {"jobs": 1}


class TestShardingFlagsAreAlwaysValidated:
    """Regression: ``--shards``/``--lookahead`` were checked only when the
    run happened to shard (more than one node *and* more than one shard);
    an empty fuzz campaign, a negative ``--jobs`` and a negative
    ``--bootstrap`` passed silently."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("fleet", "--nodes", "2", "--shards", "0"),
            ("fleet", "--nodes", "1", "--shards", "2", "--lookahead", "-1"),
            ("serve", "--quick", "--shards", "0"),
            ("serve", "--quick", "--nodes", "1", "--lookahead", "-1"),
            ("chaos", "fleet", "--shards", "0"),
            ("chaos", "fleet", "--nodes", "1", "--shards", "3", "--lookahead", "-2"),
            ("fuzz", "--count", "0"),
            ("fuzz", "--count", "-1"),
            ("run", "table2", "--jobs", "-3"),
            ("capacity", "--bootstrap", "-1"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, argv):
        assert cli.main(list(argv)) == 2
        assert f"{argv[0]}: error:" in capsys.readouterr().err


@pytest.fixture
def traced_stub(monkeypatch):
    """A fast fake experiment that emits one span into the installed tracer."""
    from repro.experiments.harness import ResultTable
    from repro.telemetry import current_tracer

    module = types.ModuleType("tests._traced_stub")

    def run():
        tracer = current_tracer()
        if tracer is not None:
            tracer.scope("stub").complete("work", 0, 1000, cat="stub")
        return ResultTable("traced", ["x"])

    module.run, module.QUICK, module.CLAIMS = run, {}, ()
    monkeypatch.setitem(sys.modules, "tests._traced_stub", module)
    monkeypatch.setitem(cli.EXPERIMENTS, "traced", ("tests._traced_stub", "x"))


class TestRunTrace:
    def test_trace_writes_valid_chrome_json(self, capsys, traced_stub, tmp_path):
        target = tmp_path / "stub-trace.json"
        code = cli.main(["run", "traced", "--json", "--trace", str(target)])
        captured = capsys.readouterr()
        assert code == 0
        envelope = json.loads(captured.out)
        assert envelope["experiment"] == "traced"
        assert envelope["params"] == {"jobs": 1}
        assert f"trace: wrote {target} (" in captured.err
        assert "span categories: stub)" in captured.err
        document = json.loads(target.read_text())
        assert isinstance(document["traceEvents"], list)

    def test_trace_failure_exits_one(self, capsys, monkeypatch, tmp_path):
        module = types.ModuleType("tests._boom_trace")

        def run():
            raise RuntimeError("deliberate failure under trace")

        module.run, module.QUICK, module.CLAIMS = run, {}, ()
        monkeypatch.setitem(sys.modules, "tests._boom_trace", module)
        monkeypatch.setitem(cli.EXPERIMENTS, "boomtrace", ("tests._boom_trace", "x"))
        code = cli.main(
            ["run", "boomtrace", "--trace", str(tmp_path / "t.json")]
        )
        capsys.readouterr()
        assert code == 1

    def test_warm_cache_still_traces_the_run(self, capsys, traced_stub, tmp_path):
        cache = str(tmp_path / "cache")
        assert cli.main(["run", "traced", "--cache-dir", cache]) == 0
        warm, cold = tmp_path / "warm.json", tmp_path / "cold.json"
        assert cli.main(
            ["run", "traced", "--cache-dir", cache, "--trace", str(warm)]
        ) == 0
        assert cli.main(["run", "traced", "--no-cache", "--trace", str(cold)]) == 0
        capsys.readouterr()
        events = json.loads(warm.read_text())["traceEvents"]
        assert [e["name"] for e in events if e["ph"] == "X"] == ["work"]
        assert events == json.loads(cold.read_text())["traceEvents"]

    def test_trace_with_jobs_is_a_usage_error(self, capsys, traced_stub, tmp_path):
        code = cli.main(
            ["run", "traced", "--jobs", "2", "--trace", str(tmp_path / "t.json")]
        )
        assert code == 2
        assert "run: error: --trace runs serially" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [("serve", "--trace", "t.json"), ("fleet", "--trace"), ("trace", "fig5")],
        ids=["serve", "fleet", "trace"],
    )
    def test_removed_spellings_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            cli.main(list(argv))
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --trace" in err or "'trace'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("serve", "--quick", "--sessions", "20", "--save-arrivals"),
        ("fleet", "--nodes", "2", "--requests", "10", "--shards", "2",
         "--opstream-stats"),
        ("run", "stub", "--trace"),
    ],
    ids=["save-arrivals", "opstream-stats", "run-trace"],
)
def test_unwritable_output_path_is_a_usage_error(
    capsys, stub_experiment, tmp_path, argv
):
    # Regression: a missing directory escaped as a raw FileNotFoundError
    # with exit 1, the code reserved for a failed experiment.
    target = tmp_path / "missing" / "out.json"
    assert cli.main([*argv, str(target)]) == 2
    err = capsys.readouterr().err
    assert f"{argv[0]}: error: cannot write {target}" in err
    assert "Traceback" not in err


class TestChaosCommand:
    def chaos_envelope(self, capsys, *argv):
        code, out = run_cli(capsys, "chaos", *argv)
        assert code == 0
        envelope = json.loads(out)
        assert envelope["experiment"] == "chaos"
        return envelope

    def test_fleet_chaos_json_envelope(self, capsys):
        envelope = self.chaos_envelope(
            capsys, "fleet", "--plan", "crash-quick",
            "--nodes", "2", "--requests", "40", "--json",
        )
        results = envelope["results"]
        # Injected events are paired with their recovery resolution.
        events = results["injected"]["events"]
        assert [e["kind"] for e in events] == ["node_crash", "node_recover"]
        assert events[0]["outcome"] == "crashed"
        assert 0.0 <= results["availability"] <= 1.0
        # Every request terminated in a typed outcome.
        assert sum(results["outcomes"].values()) == 40
        assert results["summary"]["fault_log"]["digest"] == (
            results["injected"]["digest"]
        )

    def test_fleet_chaos_byte_identical_across_runs(self, capsys):
        argv = ("fleet", "--plan", "crash-quick", "--nodes", "2",
                "--requests", "40", "--json")
        code1, out1 = run_cli(capsys, "chaos", *argv)
        code2, out2 = run_cli(capsys, "chaos", *argv)
        assert code1 == code2 == 0
        assert out1 == out2  # the CI chaos-smoke invariant, in-process

    def test_seed_override_changes_auto_targets_only(self, capsys):
        base = self.chaos_envelope(
            capsys, "fleet", "--plan", "crash-quick", "--nodes", "2",
            "--requests", "30", "--json",
        )
        seeded = self.chaos_envelope(
            capsys, "fleet", "--plan", "crash-quick", "--nodes", "2",
            "--requests", "30", "--seed", "99", "--json",
        )
        assert seeded["params"]["seed"] == 99
        # crash-quick pins its targets, so the outcome is seed-invariant.
        assert base["results"]["injected"]["events"] == (
            seeded["results"]["injected"]["events"]
        )

    def test_unknown_plan_is_usage_error(self, capsys):
        code = cli.main(["chaos", "fleet", "--plan", "no-such-plan"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "plan",
        [
            [1, 2],
            {"events": [5]},
            {"events": [{"at_ps": "x", "kind": "node_crash"}]},
            {"seed": "abc", "events": []},
            {"seed": -1, "events": []},  # numpy RandomState takes 32 bits
            {"events": [{"at_ps": 1, "kind": "link_degrade", "params": 3}]},
            {"events": [{"at_ps": 1, "kind": "link_degrade",
                         "params": {"factor": "x"}}]},
        ],
    )
    def test_malformed_plan_file_is_usage_error(self, capsys, tmp_path, plan):
        # Regression: each of these raised a raw traceback and exited 1 (the
        # negative seed and the string factor only after the run had begun).
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code = cli.main(
            ["chaos", "fleet", "--plan", str(path), "--requests", "10"]
        )
        assert code == 2
        assert "chaos: error:" in capsys.readouterr().err


class TestEnvelopeShape:
    """Every --json mode speaks the one envelope from ``repro.envelope``.

    The byte shape is load-bearing (CI ``cmp``'s envelopes across runs
    and shard counts), so this pins the legacy outputs byte-identical
    through the shared builder: exactly three keys, rendered as
    ``indent=2, sort_keys=True`` canonical JSON.
    """

    COMMANDS = (
        ("fleet", "--nodes", "1", "--requests", "40", "--seed", "5", "--json"),
        ("chaos", "fleet", "--plan", "crash-quick", "--nodes", "2",
         "--requests", "30", "--json"),
        ("capacity", "--tenants", "500", "--nodes", "2", "--load", "0.6",
         "--no-goodput", "--json"),
        ("fuzz", "--kinds", "capacity,fleet", "--seed", "1", "--count", "2",
         "--json"),
        ("fleet", "--nodes", "1", "--requests", "20", "--seed", "5",
         "--placements", "--json"),
        ("serve", "--quick", "--json"),
        ("chaos", "single", "--plan", "rogue-guest", "--window-ms", "1", "--json"),
        ("run", "stub", "--json"),
    )

    IDS = ("fleet", "chaos", "capacity", "fuzz", "fleet-placements", "serve",
           "chaos-single", "run")

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_envelope_is_canonical_bytes(self, capsys, stub_experiment, argv):
        from repro.envelope import render_envelope

        code, out = run_cli(capsys, *argv)
        assert code == 0
        envelope = json.loads(out)
        assert list(envelope) == ["experiment", "params", "results"]
        # Round-trip stability == the exact legacy rendering: re-encoding
        # the parsed envelope reproduces stdout byte for byte.
        assert out == render_envelope(envelope) + "\n"


class TestFuzzCommand:
    ARGS = ("--kinds", "capacity,fleet", "--seed", "1", "--count", "3", "--json")

    def test_campaign_envelope_and_determinism(self, capsys):
        code1, out1 = run_cli(capsys, "fuzz", *self.ARGS)
        code2, out2 = run_cli(capsys, "fuzz", *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2  # the CI fuzz-smoke invariant, in-process
        envelope = json.loads(out1)
        assert envelope["experiment"] == "fuzz"
        assert envelope["params"] == {
            "seed": 1, "count": 3, "kinds": ["capacity", "fleet"],
            "shrink": True,
        }
        results = envelope["results"]
        assert results["scenarios"] == 3
        assert results["passed"] == 3 and results["failed"] == 0
        assert len(results["scenario_digests"]) == 3

    def test_replay_roundtrip(self, capsys, tmp_path):
        from repro.scenario import FuzzConfig
        from repro.scenario.shrink import write_reproducer

        scenario = FuzzConfig(seed=1, kinds="fleet").generator().draw(0)
        path = write_reproducer(
            {"scenario": scenario.to_dict(), "digest": scenario.digest()},
            tmp_path / "repro.json",
        )
        code, out = run_cli(capsys, "fuzz", "--replay", str(path), "--json")
        assert code == 0  # a healthy stack: the reproducer passes
        envelope = json.loads(out)
        assert envelope["params"]["digest"] == scenario.digest()
        assert envelope["results"]["ok"] is True

    def test_unknown_kind_is_an_error(self, capsys):
        code = cli.main(["fuzz", "--kinds", "bogus", "--count", "1"])
        capsys.readouterr()
        assert code == 2

    def test_replay_missing_file_is_an_error(self, capsys):
        code = cli.main(["fuzz", "--replay", "/no/such/reproducer.json"])
        capsys.readouterr()
        assert code == 2
