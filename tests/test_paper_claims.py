"""Every experiment declares ``run``, a ``QUICK`` grid and its paper claims.

Tier-1 runs each registered module's ``QUICK`` grid and asserts the
claims marked ``quick``; ``benchmarks/test_paper_claims.py`` asserts every
claim on the full grids ``python -m repro run`` records.
"""

import importlib
import inspect

import pytest

from repro import __main__ as cli
from repro.experiments.harness import Claim, ResultTable
from repro.mem import PAGE_SIZE_2M

MODULES = {
    key: importlib.import_module(module)
    for key, (module, _description) in cli.EXPERIMENTS.items()
}


@pytest.mark.parametrize("key", MODULES)
def test_module_declares_run_quick_and_claims(key, monkeypatch, capsys):
    module = MODULES[key]
    assert not hasattr(module, "main") and not hasattr(module, "quick")
    assert isinstance(module.QUICK, dict)
    assert set(module.QUICK) <= set(inspect.signature(module.run).parameters)
    assert module.CLAIMS and all(isinstance(c, Claim) for c in module.CLAIMS)
    assert any(claim.quick for claim in module.CLAIMS)
    # ``run <key> --quick`` runs exactly the QUICK grid.
    grids = []

    def recording_run(**grid):
        grids.append(grid)
        return ResultTable("stub", ["x"])

    monkeypatch.setattr(module, "run", recording_run)
    monkeypatch.setattr(module, "CLAIMS", ())
    code = cli.main(["run", key, "--quick", "--no-cache"])
    capsys.readouterr()
    assert code == 0
    assert grids == [module.QUICK]


@pytest.mark.parametrize("key", MODULES)
def test_quick_claims(key):
    module = MODULES[key]
    result = module.run(**module.QUICK)
    missed = [
        claim.report(result)
        for claim in module.CLAIMS
        if claim.quick and not claim.check(result)[1]
    ]
    assert not missed, "\n".join(missed)


def test_fig5_iotlb_knee_claim_on_a_short_walk():
    # QUICK stops at 128M, short of 2 MB pages' 2 GB reach: run the knee's two cells.
    fig5 = MODULES["fig5"]
    result = fig5.run(working_sets_2m=["512M", "4G"], working_sets_4k=[], job_counts=[1])
    knee = next(c for c in fig5.CLAIMS if c.what.startswith("2M pages: 4G over 512M"))
    assert knee.check(result)[1], knee.report(result)


# Each case empties one axis, which must then simulate no cell at all
# (``axis or DEFAULT`` once swapped the whole default axis back in).
EMPTY_AXES = [
    ("fig1", "run", {"edge_counts": []}),
    ("fig5", "sweep", {"page_size": PAGE_SIZE_2M, "working_sets": ["64M"], "job_counts": []}),
    ("fig5", "run", {"working_sets_2m": [], "working_sets_4k": []}),
    ("fig6", "sweep", {"page_size": PAGE_SIZE_2M, "working_sets": ["64M"], "job_counts": []}),
    ("fig7", "run", {"benchmarks": []}),
    ("fig8", "run", {"benchmarks": [], "slices_ms": []}),
    ("table3", "run", {"benchmarks": []}),
    ("sec68", "run", {"oversubscription": []}),
    ("ablations", "conflict_mitigation_study", {"mitigation": []}),
    ("fleet_scaling", "run", {"loads": []}),
    ("chaos_recovery", "run", {"crash_counts": []}),
    ("serve_slo", "run", {"arms": []}),
    ("capacity_plan", "run", {"scenarios": []}),
]


@pytest.mark.parametrize(
    "key, function, grid",
    EMPTY_AXES,
    ids=[f"{key}.{function}" for key, function, _grid in EMPTY_AXES],
)
def test_an_empty_axis_is_empty(key, function, grid):
    result = getattr(MODULES[key], function)(**grid)
    for table in result.values() if isinstance(result, dict) else [result]:
        # A row may keep its x-axis label, never a measured cell.
        assert all(len(row) <= 1 for row in table.rows), table.to_string()
