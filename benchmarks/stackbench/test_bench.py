"""Checks of the benchmark harness itself, on the smoke sizes.

Not part of tier-1 (``testpaths`` keeps it out): run it explicitly with
``python -m pytest benchmarks/stackbench/test_bench.py``.  It takes about
two minutes, because it runs the smoke benchmark twice.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = [sys.executable, str(HERE / "bench.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*BENCH, *args], cwd=str(cwd), capture_output=True, text=True, timeout=600)


def _workers_alive() -> list:
    """Command lines of processes still running this benchmark's worker."""
    alive = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if "stackbench/worker.py" in command:
                alive.append(command)
    return alive


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two complete smoke runs: ``(results_a, results_b, directory_a)``."""
    documents = []
    for label in ("a", "b"):
        out = tmp_path_factory.mktemp(f"smoke_{label}")
        done = _bench("--smoke", "--out", str(out))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        documents.append((json.loads((out / "results.json").read_text()), out))
    return documents[0][0], documents[1][0], documents[0][1]


def test_names_and_manifest(smoke):
    results, _, _ = smoke
    assert results["smoke"] is True
    declared = [entry["name"] for entry in MANIFEST["workloads"]]
    assert list(results["workloads"]) == declared
    for section in ("end_to_end", "per_layer"):
        for entry in MANIFEST[section]:
            assert NAME.fullmatch(entry["name"])
            for workload, summary in results["workloads"].items():
                assert NAME.fullmatch(workload)
                emitted = summary[section][entry["name"]]
                assert emitted["unit"] == entry["unit"], (workload, entry["name"])
                assert isinstance(emitted["value"], (int, float))
        # Nothing is emitted that the manifest does not declare.
        for summary in results["workloads"].values():
            assert set(summary[section]) == {entry["name"] for entry in MANIFEST[section]}


def test_layer_times_add_up(smoke):
    results, _, _ = smoke
    for workload, summary in results["workloads"].items():
        ratio = summary["per_layer"]["bench.layer_sum_ratio"]["value"]
        assert abs(ratio - 1.0) <= 0.02, (workload, ratio)


def test_exact_quantities_repeat(smoke):
    first, second, _ = smoke
    for workload, summary in first["workloads"].items():
        other = second["workloads"][workload]
        assert summary["exact"] == other["exact"], workload
        assert (
            summary["per_layer"]["bench.calls_per_work"]["value"]
            == other["per_layer"]["bench.calls_per_work"]["value"]
        )
        assert any(key.endswith(".calls") for key in summary["exact"]["calls"])


def test_each_workload_stresses_its_layers(smoke):
    results, _, _ = smoke
    layer = lambda w, m: results["workloads"][w]["per_layer"][m]["value"]  # noqa: E731
    for workload in results["workloads"]:
        sharded = workload == "fleet_sharded"
        assert (layer(workload, "parallel.calls") > 0) == sharded
        assert (layer(workload, "host.ipc.self_s") > 0) == sharded
        serving = workload == "gateway_sessions"
        assert (layer(workload, "serve.calls") > 0) == serving
        assert (layer(workload, "host.asyncio.self_s") > 0) == serving
    assert layer("stream_burst", "core.calls") == 0
    assert layer("stream_burst", "platform.bursts_committed") > 0
    assert layer("membench_hit", "mem.iotlb_misses") == 0


def test_spans_nest_under_their_parents(smoke):
    _, _, out = smoke
    events = json.loads((out / "spans.trace.json").read_text())["traceEvents"]
    by_rep = {}
    for event in events:
        by_rep.setdefault(event["pid"], {})[event["name"]] = event
    assert by_rep
    for spans in by_rep.values():
        assert {"rep", "import", "setup", "timed", "verify", "teardown"} <= set(spans)
        for span in spans.values():
            parent = span["args"]["parent"]
            if parent is None:
                assert span["name"] == "rep"
                continue
            outer = spans[parent]
            assert outer["ts"] <= span["ts"]
            assert span["ts"] + span["dur"] <= outer["ts"] + outer["dur"] + 1.0


def test_compare_accepts_a_repeat_of_exact_quantities(smoke, tmp_path):
    _, _, out = smoke
    same = _bench("--compare", str(out / "results.json"), str(out / "results.json"))
    assert same.returncode == 0, same.stdout
    tampered = json.loads((out / "results.json").read_text())
    tampered["workloads"]["stream_burst"]["exact"]["digest"] = "0" * 64
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    differs = _bench("--compare", str(out / "results.json"), str(path))
    assert differs.returncode != 0
    assert "DIFFER" in differs.stdout


def test_digest_mismatch_fails_and_leaves_no_worker(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["smoke"]["fleet_sharded"]["digest"] = "0" * 64
    pins = tmp_path / "expected.json"
    pins.write_text(json.dumps(expected))
    done = _bench(
        "--smoke", "--workloads", "fleet_sharded", "--expected", str(pins),
        "--out", str(tmp_path / "out"),
    )
    assert done.returncode != 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    checks = results["workloads"]["fleet_sharded"]["checks"]
    assert any(not entry["ok"] and "pinned" in entry["check"] for entry in checks)
    assert _workers_alive() == []


def test_driver_line(tmp_path):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench(
            "--workload", "stream_burst", "--smoke", "--seed", "11", "--seconds", "1",
            "--trace", trace, "--out", str(tmp_path / "out"),
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        declared = {entry["name"]: entry["unit"] for entry in MANIFEST[section]}
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == declared
    assert _workers_alive() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "stackbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/stackbench/bench.py", "--workload", "membench_hit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{") and '"metrics"' not in done.stdout
