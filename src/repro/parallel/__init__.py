"""Sharded, deterministic parallel execution for the fleet layer.

Three pieces (see DESIGN.md §9):

* :mod:`repro.parallel.pool` — the shared process pool behind
  ``--jobs`` sweeps, plus the cost heuristic that keeps small cells
  serial;
* :mod:`repro.parallel.shadow` — coordinator-side bookkeeping twins of
  the fleet cluster/nodes (every control-plane decision, zero IPC);
* :mod:`repro.parallel.executor` + :mod:`repro.parallel.shard` — the
  epoch-batched op stream from shadow to the worker processes owning the
  real per-node platform stacks, with byte-identical results.
"""

from repro.fleet.admission import FleetService
from repro.parallel.executor import ShardedFleetCluster
from repro.parallel.pool import (
    DISPATCH_OVERHEAD_S,
    MIN_PARALLEL_BUDGET_S,
    dispatch_plan,
    pool_map,
    shared_pool,
    shutdown_shared_pool,
)
from repro.parallel.shadow import ShadowCluster, ShadowNode, ShadowTenant

# The sharded serving loop *is* FleetService (the cluster carries the epoch
# contract).  The name survives only because the frozen benchmark
# (benchmarks/stackbench/workloads.py) imports it; nothing else should.
ShardedFleetService = FleetService

__all__ = [
    "DISPATCH_OVERHEAD_S",
    "MIN_PARALLEL_BUDGET_S",
    "ShadowCluster",
    "ShadowNode",
    "ShadowTenant",
    "ShardedFleetCluster",
    "dispatch_plan",
    "pool_map",
    "shared_pool",
    "shutdown_shared_pool",
]
