"""RNG discipline: every stochastic choice in src/repro must be seeded.

Determinism is a load-bearing property of this repo — experiment tables,
fleet serving traces, and chaos recovery logs are all asserted to be
byte-identical across runs.  One stray ``random.random()`` silently
breaks that.  This test greps the source tree and fails on:

* any use of the stdlib ``random`` module (``import random`` or
  ``random.<fn>(...)``) — code must thread a seeded
  ``repro.sim.rng.LegacyRandomState`` or ``numpy.random.RandomState`` (or
  a value derived from an explicit seed) instead;
* module-level ``np.random.<fn>(...)`` draws from numpy's *global*
  generator — only explicit constructions (``RandomState``,
  ``default_rng``, ``SeedSequence``) are allowed.

If a future module genuinely needs an exception (e.g. a seeded wrapper
around stdlib random), add its repo-relative path to ``ALLOWED`` with a
comment explaining why.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: repo-relative paths allowed to use the patterns below.
ALLOWED = {
    # numpy's legacy RandomState stream on the stdlib Mersenne Twister,
    # seeded by numpy's init_genrand: always seeded, never the global one.
    "src/repro/sim/rng.py",
}

STDLIB_IMPORT = re.compile(r"^\s*(import random\b|from random import\b)", re.M)
STDLIB_CALL = re.compile(
    r"(?<![\w.])random\.(random|choice|choices|randint|randrange|shuffle|"
    r"sample|uniform|gauss|betavariate|expovariate|seed)\("
)
NUMPY_GLOBAL = re.compile(r"np\.random\.(?!RandomState|default_rng|SeedSequence)\w+\(")


def _violations():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent.parent).as_posix()
        if rel in ALLOWED:
            continue
        text = path.read_text(encoding="utf-8")
        for pattern, label in (
            (STDLIB_IMPORT, "stdlib random import"),
            (STDLIB_CALL, "unseeded stdlib random call"),
            (NUMPY_GLOBAL, "numpy global-generator draw"),
        ):
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                found.append(f"{rel}:{line}: {label}: {match.group(0).strip()}")
    return found


def test_no_unseeded_randomness_in_src():
    violations = _violations()
    assert not violations, (
        "unseeded randomness found (thread a seeded RandomState instead):\n"
        + "\n".join(violations)
    )


def test_the_grep_actually_catches_offenders(tmp_path):
    """Guard the guard: each pattern matches the thing it claims to."""
    assert STDLIB_IMPORT.search("import random\n")
    assert STDLIB_IMPORT.search("from random import choice\n")
    assert STDLIB_CALL.search("x = random.random()")
    assert STDLIB_CALL.search("pick = random.choice(pool)")
    assert not STDLIB_CALL.search("rng = np.random.RandomState(7)")
    assert NUMPY_GLOBAL.search("np.random.randint(4)")
    assert not NUMPY_GLOBAL.search("np.random.RandomState(0)")
    assert not NUMPY_GLOBAL.search("np.random.default_rng(0)")


# -- the admission policy hook draws nothing ---------------------------------


def _overloaded_serve(admission_policy=None):
    from repro.fleet import (
        FleetCluster,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        make_policy,
    )

    cluster = FleetCluster.build(2)
    requests = TrafficGenerator(
        TrafficProfile(load=3.0), fleet_slots=cluster.total_slots, seed=5
    ).generate(120)
    service = FleetService(
        cluster, make_policy("best-fit"), admission_policy=admission_policy
    )
    return service.serve(requests)


def test_an_admission_policy_leaves_the_trace_unchanged():
    """Attaching a policy that admits everything must not perturb the
    overloaded trace (retries, rejections and all)."""
    from repro.fleet import ADMIT, AdmissionPolicy

    legacy = _overloaded_serve()

    class AdmitEverything(AdmissionPolicy):
        def decide(self, request, now, service):
            return ADMIT

    with_policy = _overloaded_serve(admission_policy=AdmitEverything())
    assert with_policy.outcomes == legacy.outcomes
    assert with_policy.summary() == legacy.summary()
