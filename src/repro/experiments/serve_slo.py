"""Serving SLOs — budget-based shedding vs queue-depth-only admission.

Beyond the paper: OPTIMUS evaluates under steady offered load; a real
FPGA *service* (SYNERGY's operating point) carries per-class latency
SLOs through overload.  This study offers the same closed-loop session
trace to the fleet twice at 2x overload:

* **queue-depth** — the legacy bounded-queue admission: every arrival is
  admitted until the queue overflows, so admitted requests ride the full
  retry ladder and every class's p99 admission latency lands at the top
  of the backoff schedule;
* **slo-budget** — :class:`repro.serve.SloBudgetPolicy`: per-class p99
  budgets enforced by streaming quantile estimators; arrivals are shed
  (or degraded) the moment a class's observed latency crosses budget.

The headline: at equal offered load, the SLO arm achieves *strictly
higher in-budget p99 attainment* in every class, and holds classes whose
budget tolerates at most one queue bounce inside budget where the
baseline blows through it — the cost being explicit, typed shedding
instead of silent tail inflation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.harness import ResultTable, parallel_map
from repro.fleet import FleetCluster, FleetService, make_policy
from repro.serve import (
    Gateway,
    ServeProfile,
    SloBudgetPolicy,
    SloClass,
    synthesize,
)
from repro.serve.slo import AttainmentMonitor, capacity_classes
from repro.sim.clock import ms


def study_classes() -> Dict[str, SloClass]:
    """The study's class contract — shared with capacity planning so the
    serve-SLO figures and ``python -m repro capacity`` report attainment
    against the same budgets (see :func:`repro.serve.slo.capacity_classes`)."""
    return capacity_classes()


def serve_arm(
    admission: str,
    *,
    sessions: int = 4000,
    load: float = 2.0,
    nodes: int = 3,
    seed: int = 7,
    policy: str = "best-fit",
) -> Dict[str, object]:
    """One arm of the comparison: same trace, one admission policy."""
    cluster = FleetCluster.build(nodes)
    trace = synthesize(
        ServeProfile(load=load, followup_prob=0.3),
        sessions=sessions,
        fleet_slots=cluster.total_slots,
        seed=seed,
    )
    if admission == "slo-budget":
        admission_policy = SloBudgetPolicy(study_classes())
    else:
        admission_policy = AttainmentMonitor(study_classes())
    service = FleetService(
        cluster, make_policy(policy), admission_policy=admission_policy
    )
    return Gateway(service, trace).run().to_dict()


def _arm_cell(cell) -> Dict[str, object]:
    admission, sessions, load, nodes, seed = cell
    return serve_arm(
        admission, sessions=sessions, load=load, nodes=nodes, seed=seed
    )


def run(
    *,
    sessions: int = 4000,
    load: float = 2.0,
    nodes: int = 3,
    seed: int = 7,
    arms: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> ResultTable:
    arms = list(arms or ("queue-depth", "slo-budget"))
    table = ResultTable(
        "Serving SLOs — in-budget p99 attainment, budget shedding vs queue depth",
        [
            "admission",
            "class",
            "budget_ms",
            "admitted",
            "shed",
            "attainment",
            "p99_ms",
            "in_budget",
        ],
    )
    cells = [(arm, sessions, load, nodes, seed) for arm in arms]
    for arm, result in zip(arms, parallel_map(_arm_cell, cells, jobs=jobs)):
        slo = result["slo"]["classes"]
        classes = result["classes"]
        for name in sorted(slo):
            stats = slo[name]
            p99_ps = classes.get(name, {}).get("admit_p99_ps", 0)
            table.add(
                arm,
                name,
                stats["budget_ps"] / ms(1),
                stats["admitted"],
                stats["shed"],
                stats["attainment"],
                p99_ps / ms(1),
                p99_ps <= stats["budget_ps"],
            )
    table.note(f"same trace both arms: {sessions} sessions at load {load}, seed {seed}")
    table.note("attainment = fraction of admitted sessions placed within budget")
    table.note("shedding is typed (rejected_slo_shed), never a silent drop")
    return table


def attainment_by_arm(table: ResultTable) -> Dict[str, Dict[str, float]]:
    """``{admission: {class: attainment}}`` for downstream assertions."""
    out: Dict[str, Dict[str, float]] = {}
    arm_col = table.columns.index("admission")
    cls_col = table.columns.index("class")
    att_col = table.columns.index("attainment")
    for row in table.rows:
        out.setdefault(str(row[arm_col]), {})[str(row[cls_col])] = float(
            row[att_col]
        )
    return out


def quick(jobs: int = 1) -> ResultTable:
    return run(sessions=1200, jobs=jobs)


def main(jobs: int = 1):
    table = run(jobs=jobs)
    table.show()
    attainment = attainment_by_arm(table)
    for name in sorted(attainment.get("slo-budget", {})):
        baseline = attainment["queue-depth"][name]
        budgeted = attainment["slo-budget"][name]
        print(
            f"{name}: attainment {baseline:.4f} -> {budgeted:.4f} "
            f"({'+' if budgeted >= baseline else ''}{budgeted - baseline:.4f})"
        )
    return table


if __name__ == "__main__":
    main()
