"""Shrinking: reduce a failing scenario to its minimal reproducer.

Classic delta debugging works on unstructured inputs; scenarios are
*typed*, so the shrinker walks the type instead: for each field (in
sorted-name order, for determinism) it tries the strictly-simpler values
the field spec enumerates (:meth:`Choice.shrink_candidates` /
:meth:`Subset.shrink_candidates`), keeps any candidate that still fails
the oracle, and repeats until a full pass changes nothing — a greedy
ddmin over the field lattice.  Every candidate the kind's constraints
reject is skipped, and every oracle verdict is cached by scenario
digest, so re-visits (common: shrinking one field often re-proposes a
scenario an earlier pass already judged) cost nothing.

The result is serialized as a canonical-JSON *reproducer* —
``{"scenario", "digest", "failures", "seed", "index"}`` — which
``python -m repro fuzz --replay file.json`` runs straight back through
the oracle.  Shrinking is deterministic end to end: the same failing
scenario always produces the byte-identical reproducer file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.scenario.space import Scenario, ScenarioSpaceError

#: Predicate: does this scenario (still) fail?  Returns the failure list
#: (empty = passes).  The runner feeds the real oracle in; tests feed in
#: synthetic predicates.
FailureProbe = Callable[[Scenario], List[str]]


@dataclass
class ShrinkResult:
    """A minimal reproducer plus how we got there."""

    scenario: Scenario
    failures: List[str]
    steps: int          # accepted shrink steps (field simplifications)
    probes: int         # oracle invocations spent (cache misses only)

    def to_reproducer(self, *, seed: int, index: int) -> Dict[str, object]:
        return {
            "scenario": self.scenario.to_dict(),
            "digest": self.scenario.digest(),
            "failures": list(self.failures),
            "seed": seed,
            "index": index,
        }


def shrink(scenario: Scenario, probe: FailureProbe) -> ShrinkResult:
    """Greedy typed ddmin: simplify fields until a fixpoint."""
    spec = scenario.spec()
    cache: Dict[str, Optional[List[str]]] = {}
    probes = 0

    def failures_of(candidate: Scenario) -> Optional[List[str]]:
        nonlocal probes
        key = candidate.digest()
        if key not in cache:
            try:
                spec.validate(candidate.fields)
            except ScenarioSpaceError:
                cache[key] = None  # constraint-invalid: not a candidate
            else:
                probes += 1
                cache[key] = list(probe(candidate))
        return cache[key]

    current_failures = failures_of(scenario)
    if not current_failures:
        raise ValueError(
            f"shrink() needs a failing scenario; {scenario.digest()} passes"
        )

    steps = 0
    changed = True
    while changed:
        changed = False
        for name in sorted(scenario.fields):
            field_spec = spec.field(name)
            for simpler in field_spec.shrink_candidates(scenario.fields[name]):
                candidate = scenario.replace(**{name: simpler})
                failures = failures_of(candidate)
                if failures:
                    scenario = candidate
                    current_failures = failures
                    steps += 1
                    changed = True
                    break  # keep the simplification; the pass repeats
    return ShrinkResult(
        scenario=scenario,
        failures=list(current_failures),
        steps=steps,
        probes=probes,
    )


# -- reproducer files ------------------------------------------------------------


def write_reproducer(payload: Dict[str, object], path) -> Path:
    """Canonical JSON on disk: stable bytes for CI artifacts and diffs."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as error:
        raise ScenarioSpaceError(
            f"cannot write {path}: {error.strerror or error}"
        ) from None
    return path


def load_reproducer(path) -> Scenario:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:  # missing, unreadable, not JSON
        reason = getattr(error, "strerror", None) or error
        raise ScenarioSpaceError(f"cannot read reproducer {path}: {reason}") from None
    if not isinstance(payload, dict) or "scenario" not in payload:
        raise ScenarioSpaceError(f"{path}: not a reproducer (no 'scenario')")
    return Scenario.from_dict(payload["scenario"])
