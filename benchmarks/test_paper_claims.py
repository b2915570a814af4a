"""Every registered experiment on the grid ``python -m repro run <key>``
records, asserting each of its ``CLAIMS``.  About ten minutes on two CPUs,
so it runs nightly; tier-1 (``tests/test_paper_claims.py``) asserts the
``quick`` claims on each ``QUICK`` grid.
"""

import importlib

import pytest

from repro import __main__ as cli


@pytest.mark.parametrize("key", cli.EXPERIMENTS)
def test_paper_claims(key):
    module = importlib.import_module(cli.EXPERIMENTS[key][0])
    result = module.run()
    reports = [claim.report(result) for claim in module.CLAIMS]
    print("\n".join(reports))
    missed = [line for line in reports if line.startswith("claim MISS")]
    assert not missed, "\n".join(missed)
