"""Fleet scaling — placed-tenant throughput vs node count x offered load.

Beyond the paper: the fleet layer (:mod:`repro.fleet`) serves open-loop
tenant traffic on N heterogeneous OPTIMUS nodes behind admission control.
This study fixes the *absolute* offered request rate (computed against a
reference fleet size) and sweeps the number of nodes actually deployed:

* under-provisioned fleets saturate — admission control queues, retries,
  and finally rejects the excess, but never throws ``SchedulerError``;
* adding nodes at the same offered rate raises aggregate placed-tenant
  throughput and drives the rejection rate toward zero.

Both effects are the fleet-level analogue of the paper's Fig. 7 scaling
story: spatial capacity first, graceful temporal sharing at the margin.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import ResultTable, parallel_map
from repro.fleet import (
    AdmissionConfig,
    FleetService,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
    open_fleet,
)
from repro.sim.clock import to_seconds

NODE_COUNTS = [1, 2, 4]
LOADS = [0.6, 1.5]
SLOTS_PER_NODE = 6  # every default template carries six slots


def serve_fleet(
    n_nodes: int,
    load: float,
    *,
    requests: int = 240,
    seed: int = 7,
    policy: str = "best-fit",
    reference_nodes: Optional[int] = None,
    max_oversub: int = 2,
    queue_limit: int = 16,
    shards: int = 1,
    lookahead: int = 0,
    opstream_stats: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One cell of the sweep: serve the trace, return the fleet summary.

    The arrival process is generated against ``reference_nodes`` (default:
    the largest fleet in ``NODE_COUNTS``), so every node count faces the
    same absolute offered rate and the same request stream.  With
    ``shards > 1`` the nodes are partitioned across worker processes and
    ``lookahead`` sets their speculation depth (:func:`repro.fleet
    .open_fleet`); the summary is byte-identical either way.  Pass a dict
    as ``opstream_stats`` to receive the run's op-stream ledger (bench
    side channel, never part of the summary; empty for a serial run).
    """
    reference_nodes = reference_nodes or max(NODE_COUNTS)
    generator = TrafficGenerator(
        TrafficProfile(load=load),
        fleet_slots=reference_nodes * SLOTS_PER_NODE,
        seed=seed,
    )
    with open_fleet(
        n_nodes, shards=shards, lookahead=lookahead, max_oversub=max_oversub
    ) as cluster:
        service = FleetService(
            cluster,
            make_policy(policy),
            admission=AdmissionConfig(queue_limit=queue_limit),
        )
        result = service.serve(generator.generate(requests))
        if opstream_stats is not None:
            opstream_stats.update(cluster.opstream_stats())
    summary = result.summary()
    span_s = to_seconds(result.span_ps) or 1.0
    summary["throughput_per_s"] = summary["placements"] / span_s
    return summary


def _sweep_cell(cell) -> Dict[str, object]:
    """One grid point, as a picklable top-level worker for ``--jobs``."""
    n_nodes, load, requests, seed, policy, reference_nodes, shards = cell
    return serve_fleet(
        n_nodes,
        load,
        requests=requests,
        seed=seed,
        policy=policy,
        reference_nodes=reference_nodes,
        shards=shards,
    )


def run(
    *,
    node_counts: Optional[Sequence[int]] = None,
    loads: Optional[Sequence[float]] = None,
    requests: int = 240,
    seed: int = 7,
    policy: str = "best-fit",
    jobs: int = 1,
    shards: int = 1,
) -> ResultTable:
    node_counts = list(node_counts or NODE_COUNTS)
    loads = list(loads or LOADS)
    table = ResultTable(
        "Fleet scaling — placed throughput and rejections vs nodes x load",
        ["nodes", "load", "placed", "rejected", "reject_rate", "p95_us", "placed_per_s"],
    )
    cells = [
        (n_nodes, load, requests, seed, policy, max(node_counts), shards)
        for load in loads
        for n_nodes in node_counts
    ]
    summaries = iter(parallel_map(_sweep_cell, cells, jobs=jobs))
    for load in loads:
        for n_nodes in node_counts:
            summary = next(summaries)
            latency = summary["placement_latency"]
            table.add(
                n_nodes,
                load,
                summary["placements"],
                summary["rejections"],
                summary["rejection_rate"],
                (latency["p95_ns"] / 1e3) if latency else 0.0,
                summary["throughput_per_s"],
            )
    table.note("fixed absolute offered rate per load row (reference fleet size)")
    table.note("admission control bounds overload: rejections, never SchedulerError")
    return table


def throughput_by_nodes(table: ResultTable, load: float) -> List[float]:
    """Placed throughput across node counts, for one offered load."""
    return [
        float(row[table.columns.index("placed_per_s")])
        for row in table.rows
        if float(row[1]) == load
    ]


def main(jobs: int = 1):
    table = run(jobs=jobs)
    table.show()
    for load in sorted({float(row[1]) for row in table.rows}):
        series = throughput_by_nodes(table, load)
        print(f"load {load}: placed/s by node count = "
              + ", ".join(f"{v:.0f}" for v in series))
    return table


if __name__ == "__main__":
    main()
