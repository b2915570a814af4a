"""Tests for the content-addressed experiment result cache.

The cache key is (experiment name, canonical JSON of the params, source
tree digest of ``src/repro``): identical work hits, any param change or
source edit misses.  These tests pin the canonicalization rules (sorted
keys — satellite bugfix: param dict insertion order must not matter),
invalidation behaviour, corruption handling, the ``parallel_map``
integration, and the CLI flags (``--cache-dir`` / ``--no-cache``).
"""

import json
import pickle

import pytest

from repro import __main__ as cli
from repro.experiments.cache import (
    ExperimentCache,
    canonical_json,
    current_cache,
    install_cache,
    source_tree_digest,
    uninstall_cache,
)
from repro.experiments.harness import parallel_map


@pytest.fixture
def cache(tmp_path):
    cache = install_cache(tmp_path / "cache")
    yield cache
    uninstall_cache()


# -- canonicalization (satellite bugfix) --------------------------------------


class TestCanonicalJson:
    def test_key_order_is_insertion_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_distinct_values_never_collide_on_formatting(self):
        assert canonical_json({"a": 1}) != canonical_json({"a": "1"})
        assert canonical_json([1, 2]) != canonical_json([2, 1])

    def test_nested_dicts_are_canonicalized_too(self):
        left = canonical_json({"outer": {"z": 1, "a": 2}})
        right = canonical_json({"outer": {"a": 2, "z": 1}})
        assert left == right

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestCacheKey:
    def test_same_params_same_key_regardless_of_order(self, cache):
        assert cache.key("exp", {"b": 1, "a": 2}) == cache.key("exp", {"a": 2, "b": 1})

    def test_different_params_different_key(self, cache):
        assert cache.key("exp", {"a": 1}) != cache.key("exp", {"a": 2})

    def test_different_experiment_different_key(self, cache):
        assert cache.key("exp1", {"a": 1}) != cache.key("exp2", {"a": 1})

    def test_source_edit_invalidates(self, cache, monkeypatch):
        before = cache.key("exp", {"a": 1})
        monkeypatch.setattr(
            "repro.experiments.cache.source_tree_digest", lambda: "different"
        )
        assert cache.key("exp", {"a": 1}) != before

    def test_tree_digest_is_memoized_and_stable(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n")
        first = source_tree_digest(root)
        # Edits after the first call are deliberately ignored (modules are
        # already imported); the digest is memoized per process.
        (root / "a.py").write_text("x = 2\n")
        assert source_tree_digest(root) == first


# -- storage behaviour ---------------------------------------------------------


class TestCacheStorage:
    def test_miss_then_store_then_hit(self, cache):
        key = cache.key("exp", {"n": 1})
        hit, _ = cache.load(key)
        assert not hit
        cache.store(key, {"result": 42})
        hit, value = cache.load(key)
        assert hit and value == {"result": 42}
        assert cache.summary() == {
            "dir": str(cache.directory),
            "hits": 1,
            "misses": 1,
            "stores": 1,
        }

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        key = cache.key("exp", {"n": 2})
        cache.store(key, "fine")
        path = cache.directory / f"{key}.pkl"
        path.write_bytes(b"not a pickle")
        hit, _ = cache.load(key)
        assert not hit
        assert not path.exists()

    def test_store_leaves_no_temp_files(self, cache):
        cache.store(cache.key("exp", {"n": 3}), "value")
        assert not list(cache.directory.glob("*.tmp"))

    def test_two_interleaved_writers_of_one_key_both_succeed(self, cache):
        # Regression: every store of a key went through the same <key>.tmp,
        # so when a second writer (another process, or another cache object
        # on the same --cache-dir) finished first, the slower one's rename
        # raised FileNotFoundError after its experiment had already run.
        key = cache.key("exp", {"n": 5})
        other = ExperimentCache(cache.directory)

        class StoresTheSameKeyWhileBeingPickled:
            def __reduce__(self):
                other.store(key, "the faster writer")
                return (str, ("the slower writer",))

        cache.store(key, StoresTheSameKeyWhileBeingPickled())
        assert cache.stores == other.stores == 1
        assert cache.load(key) == (True, "the slower writer")
        assert not list(cache.directory.glob("*.tmp"))

    def test_failed_store_leaves_no_temp_file_and_no_entry(self, cache):
        key = cache.key("exp", {"n": 6})
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.store(key, lambda: None)  # a local lambda does not pickle
        assert not list(cache.directory.iterdir())
        assert cache.stores == 0

    def test_values_round_trip_pickle(self, cache):
        from repro.experiments.harness import ResultTable

        table = ResultTable("t", ["a"])
        table.add(1)
        key = cache.key("exp", {"n": 4})
        cache.store(key, table)
        _, loaded = cache.load(key)
        assert isinstance(loaded, ResultTable)
        assert loaded.rows == [[1]]

    def test_render_mentions_counts(self, cache):
        cache.load(cache.key("exp", {}))
        assert "1 misses" in cache.render()


# -- parallel_map integration --------------------------------------------------


CALLS = []


def _tracked_double(value):
    CALLS.append(value)
    return value * 2


class TestParallelMapCaching:
    def test_second_sweep_computes_nothing(self, cache):
        CALLS.clear()
        first = parallel_map(_tracked_double, [1, 2, 3])
        assert first == [2, 4, 6]
        assert CALLS == [1, 2, 3]
        second = parallel_map(_tracked_double, [1, 2, 3])
        assert second == [2, 4, 6]
        assert CALLS == [1, 2, 3]  # all hits, zero recomputation
        assert cache.hits == 3 and cache.stores == 3

    def test_partial_overlap_computes_only_new_cells(self, cache):
        CALLS.clear()
        parallel_map(_tracked_double, [1, 2])
        parallel_map(_tracked_double, [2, 3])
        assert CALLS == [1, 2, 3]

    def test_no_cache_installed_computes_every_time(self):
        assert current_cache() is None
        CALLS.clear()
        parallel_map(_tracked_double, [5])
        parallel_map(_tracked_double, [5])
        assert CALLS == [5, 5]


# -- analytic backend participation (PR 7 satellite) ---------------------------


MODE_CALLS = []


def _tracked_mode_cell(cell):
    MODE_CALLS.append(cell)
    return cell[0]


class TestAnalyticKeyCoverage:
    def test_capacity_cells_carry_mode_and_digest(self, cache):
        from repro.experiments.capacity_plan import cells_for

        cells = cells_for(
            [("analytic", 100, 2, 0.5, 20, 0), ("optimus", 100, 2, 0.5, 20, 0)],
            bootstrap=10,
            seed=1,
        )
        assert [cell[0] for cell in cells] == ["analytic", "optimus"]
        from repro.analytic import default_store

        assert all(cell[1] == default_store().digest() for cell in cells)
        tag = "repro.experiments.capacity_plan._capacity_cell"
        assert cache.key(tag, cells[0]) != cache.key(tag, cells[1])

    def test_calibration_digest_changes_the_cell_key(self, cache):
        tag = "repro.experiments.capacity_plan._capacity_cell"
        with_digest = lambda d: ("analytic", d, 100, 2, 0.5, 20, 0, 10, 1)
        assert cache.key(tag, with_digest("aaaa")) != cache.key(
            tag, with_digest("bbbb")
        )

    def test_parallel_map_never_serves_cross_mode_or_cross_digest_hits(
        self, cache
    ):
        MODE_CALLS.clear()
        base = (100, 2, 0.5, 20, 0, 10, 1)
        assert parallel_map(
            _tracked_mode_cell, [("analytic", "digest-x", *base)]
        ) == ["analytic"]
        # Same numeric scenario, different backend: must recompute.
        assert parallel_map(
            _tracked_mode_cell, [("optimus", "digest-x", *base)]
        ) == ["optimus"]
        # Same backend, different calibration artifacts: must recompute.
        assert parallel_map(
            _tracked_mode_cell, [("analytic", "digest-y", *base)]
        ) == ["analytic"]
        assert len(MODE_CALLS) == 3
        assert cache.hits == 0 and cache.stores == 3


class TestCalibrationArtifacts:
    def _spec(self):
        from repro.analytic import CellSpec
        from repro.mem import MB

        return CellSpec(benchmark="LL", working_set=1 * MB, hops=256)

    def test_artifact_round_trips_and_skips_recalibration(self, cache):
        from repro.analytic import CalibrationStore

        spec = self._spec()
        store = CalibrationStore()
        stats = store.get_or_calibrate(spec)
        assert store.calibrations == 1
        fresh = CalibrationStore()
        assert fresh.get_or_calibrate(spec) == stats
        assert fresh.calibrations == 0  # served from the artifact cache
        assert fresh.digest() == store.digest()

    def test_artifact_is_canonical_json(self, cache):
        from repro.analytic import CalibrationStore

        spec = self._spec()
        CalibrationStore().get_or_calibrate(spec)
        key = cache.key(CalibrationStore.CACHE_TAG, spec.payload())
        hit, artifact = cache.load(key)
        assert hit
        assert isinstance(artifact, str)
        assert artifact == canonical_json(json.loads(artifact))


# -- CLI integration -----------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


class TestCliCache:
    def test_warm_run_hits_and_reprints_the_same_envelope(
        self, capsys, tmp_path, stub_experiment
    ):
        cache_dir = str(tmp_path / "cli-cache")
        args = ("run", "stub", "--json", "--cache-dir", cache_dir)
        code, cold = run_cli(capsys, *args)
        assert code == 0
        assert "0 hits" in cold.err and "1 stores" in cold.err
        code, warm = run_cli(capsys, *args)
        assert code == 0
        assert "[cached]" in warm.err
        assert "1 hits" in warm.err
        assert json.loads(warm.out) == json.loads(cold.out)

    def test_cold_run_actually_ran_the_experiment(
        self, capsys, tmp_path, stub_experiment
    ):
        code, captured = run_cli(
            capsys, "run", "stub", "--json",
            "--cache-dir", str(tmp_path / "cli-cache"),
        )
        assert code == 0
        assert "stub ran" in captured.err

    def test_warm_run_skips_the_experiment_body(
        self, capsys, tmp_path, stub_experiment
    ):
        cache_dir = str(tmp_path / "cli-cache")
        run_cli(capsys, "run", "stub", "--json", "--cache-dir", cache_dir)
        _, warm = run_cli(capsys, "run", "stub", "--json", "--cache-dir", cache_dir)
        assert "stub ran" not in warm.err

    def test_no_cache_flag_disables_caching(self, capsys, tmp_path, stub_experiment):
        cache_dir = tmp_path / "cli-cache"
        args = ("run", "stub", "--json", "--no-cache", "--cache-dir", str(cache_dir))
        code, captured = run_cli(capsys, *args)
        assert code == 0
        assert "cache:" not in captured.err
        assert not cache_dir.exists()

    def test_jobs_is_not_part_of_the_key(self, capsys, tmp_path, stub_experiment):
        cache_dir = str(tmp_path / "cli-cache")
        code, _ = run_cli(capsys, "run", "stub", "--json", "--cache-dir", cache_dir)
        assert code == 0
        # Fan-out never changes results, so --jobs is excluded from the
        # whole-run key: a different jobs count still hits.
        code, captured = run_cli(
            capsys, "run", "stub", "--json", "--jobs", "2", "--cache-dir", cache_dir
        )
        assert code == 0
        assert "1 hits" in captured.err


@pytest.fixture
def stub_experiment(monkeypatch):
    """A fast fake experiment registered in the CLI registry."""
    import sys
    import types

    from repro.experiments.harness import ResultTable

    module = types.ModuleType("tests._stub_cache_experiment")

    def main():
        table = ResultTable("stub table", ["x", "y"])
        table.add("a", 1.5)
        print("stub ran")
        return table

    module.main = main
    monkeypatch.setitem(sys.modules, "tests._stub_cache_experiment", module)
    monkeypatch.setitem(
        cli.EXPERIMENTS, "stub", ("tests._stub_cache_experiment", "stub")
    )
