"""The shard worker: owns a subset of real fleet nodes, replays ops.

One worker process per shard.  At startup it builds the *real*
:class:`~repro.fleet.node.FleetNode` stacks for the node indices it owns
(platform synthesis is the expensive part of a fleet build, so N nodes
across S shards build in parallel), then loops over operation batches the
coordinator's shadow bookkeeping emitted:

``place / evict / restore_tenant / cordon / uncordon / crash / recover /
degrade / restore / bump_auditor`` — plus the speculation pair
``spec_evict`` (record a granted eviction) and ``spec_rollback`` (drop
named recorded evictions).

Op batches arrive as binary frames (:mod:`repro.parallel.opstream`);
each op is stamped with the epoch (simulated fleet time) it belongs to
and applied strictly in emission order per node — the same order the
serial serving loop would have applied them.  ``place`` ops carry the shadow's *predicted* slot and
oversubscription flag.  Shadow and real share one
:class:`~repro.cloud.slots.SlotLedger` implementation, so they agree by
construction; the worker still verifies, as the oracle, that the real
provider agrees and that its ledger equals a recount of the hypervisor,
and reports any divergence at the next barrier, so a bookkeeping bug
fails the run loudly instead of silently skewing results.

Workers receive granted evictions early and apply them when they
commit: a node's recorded evictions are applied, in grant order, just
before the next regular op, ``checkpoint``, ``sync``, ``gather`` or
``trace`` that reaches that node.  By then every grant on the node has
been resolved coordinator-side (committed by suppression, or dropped by a
``spec_rollback`` travelling ahead in the same FIFO stream), so a
speculative rollback has nothing to undo.  A regular op at epoch t that
finds a grant later than t is a protocol violation and fails the run.

Tracing: a forked worker inherits the coordinator's installed tracer
*object*, which must not be written to (its events would be lost and the
pid sequence corrupted).  When the coordinator traces, the worker installs
a **fresh** local tracer before building anything; the scopes its
platforms allocate get local pids which the coordinator later renumbers
into the pid block it reserved (see ``Tracer.reserve_pids``/``ingest``).
"""

from __future__ import annotations

import pickle
import traceback
from typing import Dict, List, Optional, Tuple

from repro.parallel.opstream import FrameDecoder


def shard_worker_main(
    worker_index: int,
    node_descs: List[Tuple[int, str, Tuple[str, ...]]],
    params,
    max_oversub: int,
    tracing: bool,
    first_pid: int,
    op_reader,
    op_writers,
    ack_queue,
) -> None:  # pragma: no cover - runs in a forked subprocess
    """Entry point of one shard worker process.

    ``node_descs`` is ``[(global_index, name, slots), ...]`` in global
    node order.  Each message on ``op_reader`` (the read end of a
    one-way pipe, written with ``send_bytes``) is, by its first byte:

    * non-zero — an op frame as is (the byte is its op count): apply a
      batch of ``(global_index, epoch_ps, op, payload)`` ops, decoded by
      this stream's :class:`~repro.parallel.opstream.FrameDecoder`;
    * ``0`` — a pickled control message follows:

      * ``("checkpoint", token, global_index, tenant_name)`` — quiesce
        and serialize one resident guest; ack ``("checkpoint",
        worker_index, token, checkpoint_or_None, errors)``
      * ``("sync", token)`` — barrier ack: ``("sync", worker_index,
        token, errors)``
      * ``("gather", token)`` — per-node reports (simulated time, metric
        snapshot, occupancy)
      * ``("trace", token)`` — export the local tracer's events, once
      * ``("exit",)`` — leave the loop

    Acks go back on ``ack_queue`` (a ``SimpleQueue``).  ``op_writers``
    are the op pipe write ends the fork copied; the worker closes them
    first, so the coordinator's exit, even by SIGKILL, ends its read with
    ``EOFError``, and the worker returns.

    The worker never raises out of the loop: failures are captured and
    surfaced through the next ``sync``/``gather`` ack so the coordinator
    can raise with the worker's traceback attached.
    """
    for writer in op_writers:
        writer.close()
    from repro.fleet.node import FleetNode, NodeSpec
    from repro.telemetry.tracer import install_tracer, uninstall_tracer

    local_tracer = None
    errors: List[str] = []
    nodes: Dict[int, object] = {}
    pid_by_node: Dict[int, int] = {}
    #: Per-node granted evictions not yet applied: ``[(tenant, grant
    #: epoch), ...]`` in grant order.
    granted: Dict[int, List[Tuple[str, int]]] = {}
    #: Stateful binary codec for this stream, mirroring the
    #: coordinator-side encoder frame for frame.
    decoder = FrameDecoder()

    try:
        if tracing:
            # Drop the inherited (coordinator) tracer; trace locally.
            uninstall_tracer()
            local_tracer = install_tracer()
        for global_index, name, slots in node_descs:
            if local_tracer is not None:
                # Scope labels embed the pid (``platform<pid> (...)``), so
                # the engine scope must be *created* under the exact pid the
                # serial build would have used — skip the pids owned by
                # nodes on other shards, then build.
                skip = (first_pid + global_index) - (local_tracer._next_pid + 1)
                if skip > 0:
                    local_tracer.reserve_pids(skip)
            node = FleetNode(
                NodeSpec.of(name, slots), params=params, max_oversub=max_oversub
            )
            nodes[global_index] = node
            if local_tracer is not None:
                scope = node.provider.platform.engine.trace
                pid_by_node[global_index] = scope.pid if scope is not None else 0
        ack_queue.put(("built", worker_index, pid_by_node, None))
    except BaseException:
        ack_queue.put(("built", worker_index, {}, traceback.format_exc()))
        return

    def commit_grants(global_index: int, epoch_ps: Optional[int] = None) -> None:
        """Apply one node's recorded evictions, in grant order.

        Called with the epoch of the regular op about to run: a grant
        later than it proves the coordinator let that op overtake an
        unresolved grant — a protocol bug.
        """
        grants = granted.pop(global_index, None)
        if not grants:
            return
        if epoch_ps is not None and any(e > epoch_ps for _t, e in grants):
            raise RuntimeError(
                f"speculation protocol violation on node {global_index}: "
                f"regular op at epoch {epoch_ps} with unresolved grants at "
                f"epochs {[e for _t, e in grants]}"
            )
        for tenant_name, _epoch in grants:
            nodes[global_index].evict(tenant_name)

    def commit_all() -> None:
        """An observation point: the coordinator resolved every grant
        before posting it, so every recorded eviction has committed."""
        for global_index in list(granted):
            try:
                commit_grants(global_index)
            except Exception:
                errors.append(
                    f"node {global_index} granted evictions:\n"
                    f"{traceback.format_exc()}"
                )

    while True:
        try:
            data = op_reader.recv_bytes()
        except EOFError:
            return  # the coordinator is gone
        if data[0]:
            for global_index, epoch_ps, op, payload in decoder.decode(data):
                try:
                    if op == "spec_evict":
                        granted.setdefault(global_index, []).append(
                            (payload[0], epoch_ps)
                        )
                    elif op == "spec_rollback":
                        _rollback(granted, global_index, payload[0])
                    else:
                        commit_grants(global_index, epoch_ps)
                        _apply(nodes[global_index], op, payload)
                except BaseException:
                    errors.append(
                        f"node {global_index} op {op}{payload!r} at epoch "
                        f"{epoch_ps}:\n{traceback.format_exc()}"
                    )
            continue
        message = pickle.loads(data[1:])
        kind = message[0]
        if kind == "exit":
            return
        if kind == "checkpoint":
            _kind, token, global_index, tenant_name = message
            checkpoint = None
            try:
                commit_grants(global_index)
                checkpoint = nodes[global_index].checkpoint_tenant(tenant_name)
            except BaseException:
                errors.append(
                    f"node {global_index} checkpoint of {tenant_name!r}:\n"
                    f"{traceback.format_exc()}"
                )
            ack_queue.put(
                ("checkpoint", worker_index, token, checkpoint, list(errors))
            )
        elif kind == "sync":
            commit_all()
            ack_queue.put(("sync", worker_index, message[1], list(errors)))
        elif kind == "gather":
            commit_all()
            reports = {}
            try:
                for global_index, node in nodes.items():
                    reports[global_index] = {
                        "simulated_ps": node.provider.platform.engine.now,
                        "metrics": node.provider.platform.metrics.snapshot(),
                        "occupancy": node.provider.occupancy_report(),
                        "health": node.health.value,
                    }
            except BaseException:
                errors.append(traceback.format_exc())
            ack_queue.put(("gather", worker_index, message[1], reports, list(errors)))
        elif kind == "trace":
            commit_all()
            events = local_tracer.export_events() if local_tracer is not None else []
            ack_queue.put(("trace", worker_index, message[1], events, list(errors)))


def _rollback(granted, global_index: int, tenant_names) -> None:
    """Drop the named recorded evictions: they never happened."""
    grants = granted.get(global_index, [])
    names = set(tenant_names)
    missing = names - {tenant for tenant, _epoch in grants}
    if missing:
        raise RuntimeError(
            f"rollback of unknown speculative evictions on node "
            f"{global_index}: {sorted(missing)}"
        )
    granted[global_index] = [g for g in grants if g[0] not in names]


def _verify_placement(node, tenant, predicted_index, predicted_oversub) -> None:
    """The oracle for shadow==real: the slot and oversubscription flag the
    real stack produced (``oversubscribed`` reads the hypervisor) against
    the coordinator's prediction, and the node's ledger against a recount
    of the hypervisor's per-slot vaccel lists."""
    if (
        tenant.physical_index != predicted_index
        or tenant.oversubscribed != predicted_oversub
    ):
        raise RuntimeError(
            "shadow bookkeeping diverged from the provider: "
            f"tenant {tenant.name!r} predicted slot {predicted_index} "
            f"(oversub={predicted_oversub}), got {tenant.physical_index} "
            f"(oversub={tenant.oversubscribed})"
        )
    node.check_ledger()


def _apply(node, op: str, payload: tuple) -> None:
    """Apply one shadow-emitted op to a real :class:`FleetNode`."""
    if op == "place":
        tenant_name, accel_type, predicted_index, predicted_oversub = payload
        tenant = node.place(tenant_name, accel_type)
        _verify_placement(node, tenant, predicted_index, predicted_oversub)
    elif op == "evict":
        node.evict(payload[0])
    elif op == "restore_tenant":
        checkpoint, predicted_index, predicted_oversub = payload
        tenant = node.restore_tenant(checkpoint)
        _verify_placement(node, tenant, predicted_index, predicted_oversub)
    elif op == "cordon":
        node.cordon()
    elif op == "uncordon":
        node.uncordon()
    elif op == "crash":
        node.crash()
    elif op == "recover":
        node.recover()
    elif op == "degrade":
        node.degrade(payload[0])
    elif op == "restore":
        node.restore()
    elif op == "bump_auditor":
        physical_index, key, count = payload
        monitor = node.provider.platform.monitor
        if monitor is not None:
            monitor.auditors[physical_index].counters.bump(key, count)
    else:  # pragma: no cover - protocol bug
        raise RuntimeError(f"unknown shard op {op!r}")
