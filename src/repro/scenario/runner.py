"""The fuzz campaign driver behind ``python -m repro fuzz``.

A run is (seed, count, kinds): draw ``count`` scenarios, feed each
through the differential oracle, shrink whatever fails, and report one
deterministic results dict — same seed, same scenarios, byte-identical
envelope, which is exactly what the CI smoke job ``cmp``'s two runs
against.  Failures become canonical-JSON reproducer files
(``--save-failures DIR``) replayable with ``--replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.scenario.generator import ScenarioGenerator
from repro.scenario.oracle import OracleResult, run_scenario
from repro.scenario.shrink import shrink, write_reproducer
from repro.scenario.space import Scenario, resolve_kinds


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign's parameters."""

    seed: int = 0
    count: int = 5
    kinds: Optional[str] = None       # comma list; None = all kinds
    shrink_failures: bool = True
    save_failures: Optional[str] = None  # directory for reproducer files

    def generator(self) -> ScenarioGenerator:
        return ScenarioGenerator(self.seed, resolve_kinds(self.kinds))


@dataclass
class FuzzReport:
    """Everything one campaign produced, JSON-able for the envelope."""

    config: FuzzConfig
    results: List[OracleResult] = field(default_factory=list)
    reproducers: List[Dict[str, object]] = field(default_factory=list)
    saved_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def to_dict(self) -> Dict[str, object]:
        by_kind: Dict[str, int] = {}
        for result in self.results:
            by_kind[result.scenario.kind] = by_kind.get(result.scenario.kind, 0) + 1
        return {
            "scenarios": len(self.results),
            "by_kind": dict(sorted(by_kind.items())),
            "passed": sum(1 for r in self.results if r.ok),
            "failed": sum(1 for r in self.results if not r.ok),
            "failures": [
                {
                    "index": index,
                    "digest": result.scenario.digest(),
                    "kind": result.scenario.kind,
                    "failures": list(result.failures),
                }
                for index, result in enumerate(self.results)
                if not result.ok
            ],
            "reproducers": self.reproducers,
            "scenario_digests": [r.scenario.digest() for r in self.results],
        }


def run_fuzz(
    config: FuzzConfig,
    *,
    narrate: Callable[[str], None] = lambda line: None,
    oracle: Callable[[Scenario], OracleResult] = run_scenario,
) -> FuzzReport:
    """Run the campaign.  ``narrate`` gets one human line per scenario
    (the CLI points it at stderr); ``oracle`` is injectable for tests."""
    report = FuzzReport(config)
    generator = config.generator()
    for index in range(config.count):
        scenario = generator.draw(index)
        result = oracle(scenario)
        report.results.append(result)
        status = "ok" if result.ok else f"FAIL ({len(result.failures)})"
        narrate(
            f"fuzz[{index}] {scenario.kind:<8} {scenario.digest()}  {status}"
        )
        if result.ok:
            continue
        reproducer: Dict[str, object]
        if config.shrink_failures:
            shrunk = shrink(
                scenario, lambda candidate: oracle(candidate).failures
            )
            narrate(
                f"fuzz[{index}] shrunk {scenario.digest()} -> "
                f"{shrunk.scenario.digest()} in {shrunk.steps} steps "
                f"({shrunk.probes} probes)"
            )
            reproducer = shrunk.to_reproducer(seed=config.seed, index=index)
        else:
            reproducer = {
                "scenario": scenario.to_dict(),
                "digest": scenario.digest(),
                "failures": list(result.failures),
                "seed": config.seed,
                "index": index,
            }
        report.reproducers.append(reproducer)
        if config.save_failures:
            path = write_reproducer(
                reproducer,
                Path(config.save_failures)
                / f"repro-seed{config.seed}-idx{index}-{reproducer['digest']}.json",
            )
            report.saved_paths.append(str(path))
            narrate(f"fuzz[{index}] wrote {path}")
    return report


def replay(path, *, oracle: Callable[[Scenario], OracleResult] = run_scenario
           ) -> OracleResult:
    """Run one saved reproducer back through the oracle."""
    from repro.scenario.shrink import load_reproducer

    return oracle(load_reproducer(path))
