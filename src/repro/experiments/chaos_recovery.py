"""Chaos recovery: availability and placement tails vs crash rate.

Beyond-paper experiment for the fault-injection subsystem
(:mod:`repro.faults`): one fixed tenant trace is served against the same
fleet while a seeded :func:`~repro.faults.plan.build_crash_plan` injects
an increasing number of node crashes (each node recovering ``outage_ps``
later).  Reported per crash count:

* **availability** — accepted requests that completed (directly or after
  failover re-placement) over all accepted requests;
* **replaced / failed** — sessions displaced by a crash, split into those
  re-placed on surviving nodes and those that found no healthy slot;
* **p99 latencies** — admission wait (arrival -> placement) and failover
  re-placement cost tails, in microseconds.

Every cell is deterministic: the traffic seed, plan seed, and placement
policy fully determine the outcome, so the table is reproducible
byte-for-byte.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import Claim, ResultTable
from repro.faults import build_crash_plan
from repro.fleet import (
    AdmissionConfig,
    FleetCluster,
    FleetService,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
)
from repro.sim.clock import ms


def run(
    *,
    n_nodes: int = 4,
    requests: int = 160,
    load: float = 0.85,
    traffic_seed: int = 1,
    plan_seed: int = 3,
    crash_counts: Sequence[int] = (0, 1, 2, 4, 8),
    window_ps: int = ms(40),
    outage_ps: int = ms(10),
    policy: str = "best-fit",
) -> ResultTable:
    table = ResultTable(
        f"Chaos recovery — {n_nodes} nodes, {requests} requests, load {load}",
        ["crashes", "availability", "completed", "replaced", "failed", "rejected",
         "p99_wait_us", "p99_replace_us"],
    )
    for n_crashes in crash_counts:
        cluster = FleetCluster.build(n_nodes)
        generator = TrafficGenerator(
            TrafficProfile(load=load), fleet_slots=cluster.total_slots, seed=traffic_seed
        )
        service = FleetService(cluster, make_policy(policy), admission=AdmissionConfig())
        if n_crashes:
            service.install_faults(
                build_crash_plan(
                    n_crashes=n_crashes,
                    n_nodes=n_nodes,
                    window_ps=window_ps,
                    outage_ps=outage_ps,
                    seed=plan_seed,
                )
            )
        result = service.serve(generator.generate(requests))
        counts = result.outcome_counts()
        rejected = sum(
            count for outcome, count in counts.items()
            if outcome.startswith("rejected_")
        )
        metrics = result.metrics
        table.add(
            n_crashes,
            result.availability(),
            counts.get("completed", 0),
            counts.get("replaced_completed", 0),
            counts.get("failed_by_fault", 0),
            rejected,
            metrics.placement_latency.percentile_ns(99) / 1e3,
            metrics.replacement_latency.percentile_ns(99) / 1e3,
        )
    table.note(
        "availability = completed / accepted; crashes recover after "
        f"{outage_ps} ps; every accepted request ends in a typed outcome"
    )
    return table


QUICK = {"requests": 60, "crash_counts": [0, 1, 3]}

CLAIMS = (
    Claim("availability without crashes", "beyond the paper: 1",
          lambda t: t.column("availability")[0], low=1.0, high=1.0, quick=True),
    Claim("largest availability change from one crash count to the next",
          "beyond the paper: <= 0",
          lambda t: max(
              b - a for a, b in zip(t.column("availability"), t.column("availability")[1:])
          ), high=0.0, quick=True),
    # Failover re-places displaced sessions on surviving nodes.
    Claim("sessions re-placed at the most crashes", "beyond the paper: > 0",
          lambda t: t.column("replaced")[-1], low=1.0, quick=True),
)
