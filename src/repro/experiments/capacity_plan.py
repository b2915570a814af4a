"""Capacity planning — analytic fast-forward vs the fleet DES.

Beyond the paper: the multi-fidelity sweep the analytic backend
(:mod:`repro.analytic`) exists for.  Every scenario is served twice where
the DES can keep up — ``mode="optimus"`` runs the real
:class:`~repro.fleet.admission.FleetService`, ``mode="analytic"`` the
capacity planner — and analytic-only at fleet scale (10^5..10^6 tenants,
multi-day horizons) where one DES run would take longer than this whole
sweep.  Side-by-side rows let the table itself show the fidelity
contract: identical seeds, identical traffic arrays, placements and
latency tails agreeing within the cross-validation band
(``tests/test_analytic_validation.py``).

Cache honesty: each sweep cell carries the backend **mode** and the
**calibration digest** in its cell tuple, so the content-addressed
experiment cache can never serve an analytic result where a DES result
was asked for, nor a result fitted from different calibration artifacts
(``tests/test_experiment_cache.py`` pins this).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analytic import CapacityConfig, default_store, run_capacity
from repro.experiments.harness import Claim, ResultTable, parallel_map
from repro.sim.clock import ms

#: (mode, tenants, nodes, load, mean_session_ms, horizon_s) scenarios.
#: ``optimus`` rows are the DES reference; scenarios above ~10^4 tenants
#: are analytic-only — that asymmetry is the experiment's point.
WEEK_S = 7 * 24 * 3600

MAIN_SCENARIOS: Tuple[Tuple[str, int, int, float, int, int], ...] = (
    ("optimus", 5_000, 8, 0.5, 20, 0),
    ("analytic", 5_000, 8, 0.5, 20, 0),
    ("optimus", 5_000, 8, 4.5, 20, 0),
    ("analytic", 5_000, 8, 4.5, 20, 0),
    ("optimus", 5_000, 8, 6.0, 20, 0),
    ("analytic", 5_000, 8, 6.0, 20, 0),
    ("analytic", 200_000, 8, 6.0, 20, 0),
    ("analytic", 1_000_000, 8, 6.0, 20, 0),
    # A week of simulated time: tenants hold accelerators for ~a minute,
    # the planning question is pure peak-occupancy headroom.
    ("analytic", 2_000_000, 64, 0.52, 60_000, WEEK_S),
)

QUICK_SCENARIOS: Tuple[Tuple[str, int, int, float, int, int], ...] = (
    ("optimus", 1_500, 4, 0.5, 20, 0),
    ("analytic", 1_500, 4, 0.5, 20, 0),
    ("optimus", 1_500, 4, 5.0, 20, 0),
    ("analytic", 1_500, 4, 5.0, 20, 0),
    ("analytic", 50_000, 4, 5.0, 20, 0),
)


def _capacity_cell(cell) -> Dict[str, object]:
    """One sweep cell; the tuple *is* the experiment-cache key payload."""
    mode, digest, tenants, nodes, load, session_ms, horizon_s, bootstrap, seed = cell
    config = CapacityConfig(
        tenants=tenants,
        nodes=nodes,
        load=load,
        mean_session_ps=ms(session_ms),
        horizon_ps=horizon_s * 10**12,
        bootstrap=bootstrap,
        seed=seed,
    )
    return run_capacity(mode, config)


def cells_for(
    scenarios: Sequence[Tuple[str, int, int, float, int, int]],
    *,
    bootstrap: int = 200,
    seed: int = 7,
) -> List[tuple]:
    """Cell tuples with the mode and calibration digest baked in."""
    digest = default_store().digest()
    return [
        (mode, digest, tenants, nodes, load, session_ms, horizon_s, bootstrap, seed)
        for mode, tenants, nodes, load, session_ms, horizon_s in scenarios
    ]


def run(
    *,
    scenarios: Sequence[Tuple[str, int, int, float, int, int]] = MAIN_SCENARIOS,
    bootstrap: int = 200,
    seed: int = 7,
    jobs: int = 1,
) -> ResultTable:
    table = ResultTable(
        "Capacity planning — analytic fast-forward vs fleet DES",
        [
            "mode", "engine", "tenants", "nodes", "load", "session_ms",
            "horizon_s", "placed", "reject_rate", "mean_ms", "p99_ms",
            "gold_att", "bronze_att",
        ],
    )
    envelopes = parallel_map(
        _capacity_cell,
        cells_for(scenarios, bootstrap=bootstrap, seed=seed),
        jobs=jobs,
    )
    for scenario, envelope in zip(scenarios, envelopes):
        mode, tenants, nodes, load, session_ms, horizon_s = scenario
        latency = envelope["latency_ps"]
        classes = envelope["classes"]
        table.add(
            mode,
            envelope["engine"],
            tenants,
            nodes,
            load,
            session_ms,
            horizon_s,
            round(float(envelope["placements"]), 1),
            round(float(envelope["rejection_rate"]), 4),
            round(latency["mean"] / ms(1), 3),
            round(latency["p99"] / ms(1), 3),
            round(classes["gold"]["attainment"], 4),
            round(classes["bronze"]["attainment"], 4),
        )
    table.note("identical seeds and traffic arrays across modes per scenario")
    table.note(
        "analytic-only rows are the point: scales the DES cannot sweep"
    )
    table.note(f"calibration digest: {default_store().digest()}")
    return table


QUICK = {"scenarios": QUICK_SCENARIOS, "bootstrap": 50}


def _worst_gap(table: ResultTable, column: str) -> float:
    """Largest relative analytic-vs-DES gap in ``column`` over the
    scenarios both backends ran."""
    index = table.columns.index(column)
    des = {tuple(row[2:7]): row[index] for row in table.rows if row[0] == "optimus"}
    return max(
        abs(row[index] / des[tuple(row[2:7])] - 1.0)
        for row in table.rows
        if row[0] == "analytic" and tuple(row[2:7]) in des
    )


# The cross-validation bands of tests/test_analytic_validation.py.
CLAIMS = (
    Claim("placements, analytic vs DES, worst relative gap",
          "beyond the paper: within 5%", lambda t: _worst_gap(t, "placed"),
          high=0.05, quick=True),
    Claim("mean latency, analytic vs DES, worst relative gap",
          "beyond the paper: within 10%", lambda t: _worst_gap(t, "mean_ms"),
          high=0.10, quick=True),
)
