"""Tests for the ``python -m repro`` command-line entry point."""

import json
import os
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

    def test_json_list_is_machine_readable(self, capsys):
        code, out = run_cli(capsys, "list", "--json")
        assert code == 0
        registry = json.loads(out)
        assert set(registry) == set(cli.EXPERIMENTS)
        assert registry["fig4"]["module"] == "repro.experiments.fig4_overhead"
        assert registry["fig4"]["description"]


class TestRunExitCodes:
    @pytest.fixture
    def boom_experiment(self, monkeypatch):
        module = types.ModuleType("tests._boom_experiment")

        def main():
            raise RuntimeError("deliberate experiment failure")

        module.main = main
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
    """A fast fake experiment returning a ResultTable (with one NaN cell)."""
    from repro.experiments.harness import ResultTable

    module = types.ModuleType("tests._stub_experiment")

    def main():
        table = ResultTable("stub table", ["x", "y"])
        table.add("a", 1.5)
        table.add("b", float("nan"))
        print("human narration")
        return table

    module.main = main
    monkeypatch.setitem(sys.modules, "tests._stub_experiment", module)
    monkeypatch.setitem(cli.EXPERIMENTS, "stub", ("tests._stub_experiment", "stub"))


class TestRunJson:
    def test_run_json_envelope(self, capsys, stub_experiment):
        code = cli.main(["run", "stub", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        envelope = json.loads(captured.out)
        assert envelope["experiment"] == "stub"
        assert envelope["params"] == {"jobs": 1, "reference": False}
        assert envelope["results"]["title"] == "stub table"
        assert envelope["results"]["columns"] == ["x", "y"]
        assert envelope["results"]["rows"][0] == ["a", 1.5]
        assert envelope["results"]["rows"][1][1] is None  # NaN -> null
        # Narration must not pollute the machine-readable stream.
        assert "human narration" not in captured.out
        assert "human narration" in captured.err


class TestReferenceModeIsScoped:
    def test_reference_flag_does_not_leak_into_the_caller(
        self, capsys, stub_experiment, monkeypatch
    ):
        # Regression: --reference set REPRO_FAST_PATH=0 and never restored
        # it, so every later in-process cli.main() call silently ran on the
        # reference path.
        from repro.platform.params import default_fast_path

        monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
        assert default_fast_path() is True
        code = cli.main(["run", "stub", "--reference", "--no-cache", "--json"])
        envelope = json.loads(capsys.readouterr().out)
        assert code == 0 and envelope["params"]["reference"] is True
        assert default_fast_path() is True
        assert "REPRO_FAST_PATH" not in os.environ

    def test_a_preset_environment_value_is_put_back(
        self, capsys, stub_experiment, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAST_PATH", "1")
        assert cli.main(["run", "stub", "--reference", "--no-cache"]) == 0
        capsys.readouterr()
        assert os.environ["REPRO_FAST_PATH"] == "1"


class TestRunCacheKeysOnTheResolvedMode:
    """Regression: the experiment cache keyed on the raw ``REPRO_FAST_PATH``
    string, not on the mode the run actually resolves to."""

    def test_reference_mode_has_its_own_key(self, capsys, stub_experiment, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        assert "[cached]" not in run_cli(capsys, "run", "stub")[1]
        # Unset is fast mode: not a hit on the reference result.
        monkeypatch.delenv("REPRO_FAST_PATH")
        assert "[cached]" not in run_cli(capsys, "run", "stub")[1]
        # And "1" is the same mode as unset.
        monkeypatch.setenv("REPRO_FAST_PATH", "1")
        assert "[cached]" in run_cli(capsys, "run", "stub")[1]

    def test_every_spelling_of_reference_mode_shares_one_key(
        self, capsys, stub_experiment, monkeypatch
    ):
        outputs = []
        for spelling in ("0", "false", "off"):
            monkeypatch.setenv("REPRO_FAST_PATH", spelling)
            outputs.append(run_cli(capsys, "run", "stub")[1])
        assert ["[cached]" in out for out in outputs] == [False, True, True]


class TestShardingFlagsAreAlwaysValidated:
    """Regression: ``--shards``/``--lookahead`` were checked only when the
    run happened to shard (more than one node *and* more than one shard)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("fleet", "--nodes", "2", "--shards", "0"),
            ("fleet", "--nodes", "1", "--shards", "2", "--lookahead", "-1"),
            ("serve", "--quick", "--shards", "0"),
            ("serve", "--quick", "--nodes", "1", "--lookahead", "-1"),
            ("chaos", "fleet", "--shards", "0"),
            ("chaos", "fleet", "--nodes", "1", "--shards", "3", "--lookahead", "-2"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, argv):
        assert cli.main(list(argv)) == 2
        assert f"{argv[0]}: error:" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_writes_valid_chrome_json(self, capsys, stub_experiment, tmp_path):
        target = tmp_path / "stub-trace.json"
        code = cli.main(["trace", "stub", "--json", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 0
        envelope = json.loads(captured.out)
        assert envelope["experiment"] == "stub"
        assert envelope["results"]["trace_file"] == str(target)
        document = json.loads(target.read_text())
        assert isinstance(document["traceEvents"], list)
        assert sorted(envelope["results"]["span_categories"]) == (
            envelope["results"]["span_categories"]
        )

    def test_trace_failure_exits_one(self, capsys, monkeypatch, tmp_path):
        module = types.ModuleType("tests._boom_trace")

        def main():
            raise RuntimeError("deliberate failure under trace")

        module.main = main
        monkeypatch.setitem(sys.modules, "tests._boom_trace", module)
        monkeypatch.setitem(cli.EXPERIMENTS, "boomtrace", ("tests._boom_trace", "x"))
        code = cli.main(
            ["trace", "boomtrace", "--output", str(tmp_path / "t.json")]
        )
        capsys.readouterr()
        assert code == 1


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
    )

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_envelope_is_canonical_bytes(self, capsys, argv):
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
