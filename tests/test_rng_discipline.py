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


# -- per-request jitter streams ------------------------------------------------
#
# Retry jitter is the one stochastic knob inside the serving loop itself,
# so its discipline is stricter than "seeded": every request owns an
# independent stream keyed on (jitter_seed, request_id), and the default
# jitter of 0.0 must draw nothing at all.


def _overloaded_serve(admission=None, admission_policy=None):
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
        cluster,
        make_policy("best-fit"),
        admission=admission,
        admission_policy=admission_policy,
    )
    return service.serve(requests)


class TestPerRequestJitterStreams:
    def test_stream_depends_only_on_seed_and_request_id(self):
        from repro.fleet import request_jitter_rng

        def four_draws(jitter_seed, request_id):
            rng = request_jitter_rng(jitter_seed, request_id)
            return [rng.random_sample() for _ in range(4)]

        first = four_draws(7, 42)
        again = four_draws(7, 42)
        assert first == again
        assert four_draws(7, 43) != first
        assert four_draws(8, 42) != first

    def test_draws_on_one_stream_never_shift_another(self):
        from repro.fleet import request_jitter_rng

        reference = request_jitter_rng(3, 11)
        expected = [reference.random_sample() for _ in range(4)]
        # Interleave heavy draws on other requests' streams between the
        # target's draws: the target's sequence must not move.
        target = request_jitter_rng(3, 11)
        observed = []
        for other in (10, 12, 99):
            heavy = request_jitter_rng(3, other)
            for _ in range(256):
                heavy.random_sample()
            observed.append(float(target.random_sample()))
        observed.append(float(target.random_sample()))
        assert observed == expected

    def test_jittered_serving_is_deterministic(self):
        from repro.fleet import AdmissionConfig

        config = AdmissionConfig(retry_jitter=0.3, jitter_seed=21)
        first = _overloaded_serve(admission=config)
        second = _overloaded_serve(admission=config)
        assert first.outcomes == second.outcomes
        assert first.summary() == second.summary()
        # ...and the seed matters: a different stream reshapes the run.
        other = _overloaded_serve(
            admission=AdmissionConfig(retry_jitter=0.3, jitter_seed=22)
        )
        assert other.outcomes != first.outcomes

    def test_zero_jitter_is_draw_free_and_byte_stable(self):
        """``retry_jitter=0.0`` must reproduce the legacy trace exactly —
        and attaching an admission policy must not perturb it either."""
        from repro.fleet import ADMIT, AdmissionConfig, AdmissionPolicy

        legacy = _overloaded_serve()
        explicit_zero = _overloaded_serve(
            admission=AdmissionConfig(retry_jitter=0.0)
        )
        assert explicit_zero.outcomes == legacy.outcomes
        assert explicit_zero.summary() == legacy.summary()

        class AdmitEverything(AdmissionPolicy):
            def decide(self, request, now, service):
                return ADMIT

        with_policy = _overloaded_serve(admission_policy=AdmitEverything())
        assert with_policy.outcomes == legacy.outcomes
        assert with_policy.summary() == legacy.summary()
