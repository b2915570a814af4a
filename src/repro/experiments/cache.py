"""Content-addressed experiment result cache.

A sweep cell is a pure function of (experiment entry point, parameters,
simulator source).  The cache keys each result by exactly those three
ingredients:

* the **experiment name** (module-qualified entry point for sweep cells,
  registry key for whole CLI experiments),
* the **canonical JSON** of the parameters — ``sort_keys`` + tight
  separators, so two dicts with different insertion order hash the same
  (and two *different* values never collide on formatting),
* a **source-tree digest** of ``src/repro/**/*.py`` — editing any
  simulator source invalidates every cached result, so stale hits are
  impossible without tracking fine-grained dependencies.

Values are pickled (results carry ``ResultTable``/dataclass instances;
JSON round-trips would lose types).  Stores are atomic
(write-temp-then-rename), so a crashed or parallel run never leaves a
truncated entry behind.

The installed cache is ambient (like the tracer): the CLI installs one
around a run, :func:`repro.experiments.harness.parallel_map` consults
:func:`current_cache` per cell, and hit/miss counts surface at the end.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Cache format version; bump to invalidate every existing entry.
_FORMAT = 1

_REPRO_ROOT = Path(__file__).resolve().parent.parent


def canonical_json(value: Any) -> str:
    """The one JSON form used for hashing and envelopes: sorted keys,
    tight separators, non-finite floats forbidden (they would not
    round-trip through strict JSON)."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False, default=repr
    )


_TREE_DIGEST: Dict[Path, str] = {}


def source_tree_digest(root: Optional[Path] = None) -> str:
    """SHA-256 over every ``*.py`` under ``src/repro`` (path + content).

    Memoized per process — the tree cannot change mid-run in a way we
    should honor (imported modules are already loaded), and sweeps call
    this once per cell.
    """
    root = Path(root) if root is not None else _REPRO_ROOT
    cached = _TREE_DIGEST.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _TREE_DIGEST[root] = value
    return value


class ExperimentCache:
    """A directory of pickled results keyed by content-addressed hashes."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------------

    def key(self, experiment: str, params: Any) -> str:
        payload = canonical_json(
            {
                "format": _FORMAT,
                "experiment": experiment,
                "params": params,
                "tree": source_tree_digest(),
            }
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # -- access --------------------------------------------------------------

    def load(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; a corrupt entry counts as a miss and is removed."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:  # truncated/corrupt entry: recompute
            path.unlink(missing_ok=True)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        # A temp file of its own per call: two writers of one key (another
        # process, or another cache object on this directory) must not
        # rename each other's file away.  The last rename wins, atomically.
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise
        self.stores += 1

    # -- telemetry -----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "dir": str(self.directory),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def render(self) -> str:
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores ({self.directory})"
        )


# -- the installed cache (ambient, like the tracer) ---------------------------

_ACTIVE: Optional[ExperimentCache] = None


def current_cache() -> Optional[ExperimentCache]:
    """The installed cache, or ``None`` (caching off)."""
    return _ACTIVE


def install_cache(directory) -> ExperimentCache:
    global _ACTIVE
    _ACTIVE = ExperimentCache(directory)
    return _ACTIVE


def uninstall_cache() -> None:
    global _ACTIVE
    _ACTIVE = None
