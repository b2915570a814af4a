"""Migration recovery: proactive evacuation vs reactive failover.

Beyond-paper experiment for the typed fleet-operations API (ISSUE 8):
one fixed tenant trace is served against the same physical fleet under
the same seeded :func:`~repro.faults.plan.build_degrade_crash_plan` —
every fault *announces itself* (link degrade), escalates to a node crash
``warning_ms`` later, and recovers after ``outage_ms``.  Two control
policies race the warning window:

Both rows run the identical fleet: ``n_nodes`` active plus ``n_standby``
parked (cordoned) reserve nodes, same traffic, same plan — the *only*
delta is ``AutoscaleConfig.proactive_evacuation``:

* **reactive** — the reserve exists but nothing taps it.  The crash
  displaces residents; the serving loop re-places what fits on the
  saturated active nodes and fails the rest (``failed_by_fault``).
* **proactive** — on seeing a DEGRADED node the autoscaler commissions a
  parked node and drains the sick one through
  :meth:`~repro.fleet.ops.FleetOps.drain` (cordon + live-migrate every
  resident).  Sessions keep running through the crash; the node is
  re-admitted when its health recovers.

The acceptance claim of ISSUE 8 is the ``failed`` column: the proactive
run must lose strictly fewer sessions than the reactive baseline on the
same plan.  Every cell is deterministic (traffic seed, plan seed, policy
fully determine the outcome).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.harness import Claim, ResultTable
from repro.faults import build_degrade_crash_plan
from repro.fleet import (
    AdmissionConfig,
    AutoscaleConfig,
    FleetCluster,
    FleetService,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
)
from repro.sim.clock import ms, us


def run(
    *,
    n_nodes: int = 4,
    n_standby: int = 2,
    requests: int = 160,
    load: float = 0.95,
    traffic_seed: int = 1,
    plan_seed: int = 3,
    n_faults: int = 3,
    window_ps: int = ms(30),
    warning_ps: int = ms(4),
    outage_ps: int = ms(10),
    max_oversub: int = 1,
    policy: str = "best-fit",
) -> ResultTable:
    table = ResultTable(
        f"Migration recovery — {n_nodes}+{n_standby} nodes, "
        f"{n_faults} degrade->crash faults, load {load}",
        ["mode", "availability", "completed", "replaced", "migrated", "failed",
         "rejected", "evacuations", "live_migrations"],
    )
    total_nodes = n_nodes + n_standby
    standby = tuple(f"node{i}" for i in range(n_nodes, total_nodes))
    failures: Dict[str, int] = {}
    for proactive in (False, True):
        cluster = FleetCluster.build(total_nodes, max_oversub=max_oversub)
        generator = TrafficGenerator(
            TrafficProfile(load=load), fleet_slots=cluster.total_slots, seed=traffic_seed
        )
        service = FleetService(cluster, make_policy(policy), admission=AdmissionConfig())
        # Faults target only the first n_nodes, so standbys are never the
        # victim in either run.
        service.install_faults(
            build_degrade_crash_plan(
                n_faults=n_faults,
                n_nodes=n_nodes,
                window_ps=window_ps,
                warning_ps=warning_ps,
                outage_ps=outage_ps,
                seed=plan_seed,
            )
        )
        # Elastic scale-up is neutralized (unreachable watermark/queue
        # thresholds) so the parked capacity is spent on evacuation only and
        # the two rows differ in exactly one mechanism.
        service.install_autoscaler(
            AutoscaleConfig(
                interval_ps=us(100),
                high_watermark=1.0,
                queue_high=10**6,
                min_active_nodes=n_nodes,
                standby_nodes=standby,
                proactive_evacuation=proactive,
            )
        )
        result = service.serve(generator.generate(requests))
        counts = result.outcome_counts()
        rejected = sum(
            count for outcome, count in counts.items()
            if outcome.startswith("rejected_")
        )
        mode = "proactive" if proactive else "reactive"
        failures[mode] = counts.get("failed_by_fault", 0)
        by_action = service.autoscaler.summary()["by_action"]
        table.add(
            mode,
            result.availability(),
            counts.get("completed", 0),
            counts.get("replaced_completed", 0),
            counts.get("migrated_completed", 0),
            failures[mode],
            rejected,
            by_action.get("evacuate", 0),
            result.metrics.fault_counters.get("migrations"),
        )
    table.note(
        "same seeded degrade->crash plan both rows; proactive drains "
        f"DEGRADED nodes inside the {warning_ps // ms(1)} ms warning window "
        f"(reactive {failures.get('reactive')} vs proactive "
        f"{failures.get('proactive')} failed sessions)"
    )
    return table


QUICK = {"requests": 80, "n_faults": 2, "window_ps": ms(15)}


CLAIMS = (
    # The acceptance claim: strictly fewer lost sessions on the same plan.
    Claim("failed sessions, reactive minus proactive", "beyond the paper: > 0",
          lambda t: t.series("failed")["reactive"] - t.series("failed")["proactive"],
          low=1.0, quick=True),
    Claim("sessions live-migrated by the proactive run", "beyond the paper: > 0",
          lambda t: t.series("migrated")["proactive"], low=1.0, quick=True),
)
