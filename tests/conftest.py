"""One Hypothesis configuration for the suite.

``tier1`` is the default: every property test draws the same examples
on every run (``derandomize``), keeps no example database, and prints a
``@reproduce_failure`` blob when it fails.  ``nightly`` draws fresh
examples for each ``--hypothesis-seed``::

    python -m pytest tests --hypothesis-profile=nightly --hypothesis-seed=7

Each test sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile(
    "tier1",
    deadline=None,
    derandomize=True,
    database=None,
    print_blob=True,
)
settings.register_profile(
    "nightly", parent=settings.get_profile("tier1"), derandomize=False
)
settings.load_profile("tier1")
