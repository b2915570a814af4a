"""The shard worker: owns a subset of real fleet nodes, replays ops.

One worker process per shard.  At startup it builds the *real*
:class:`~repro.fleet.node.FleetNode` stacks for the node indices it owns
(platform synthesis is the expensive part of a fleet build, so N nodes
across S shards build in parallel), then loops over operation batches the
coordinator's shadow bookkeeping emitted:

``place / evict / restore_tenant / cordon / uncordon / crash / recover /
degrade / restore / bump_auditor`` — plus the speculation pair
``spec_evict`` (apply a granted eviction early, after snapshotting the
undo state) and ``spec_rollback`` (reinstate named speculative evictions,
newest first, verifying the rebuilt guests digest identically).

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

A regular op at epoch t retires undo entries granted at epochs <= t
(their departures have committed coordinator-side by suppression); an
undo entry still live *past* a regular op is a protocol violation and
fails the run — the coordinator's rollback is guaranteed to travel ahead
of any conflicting op in the same FIFO stream.

Tracing: a forked worker inherits the coordinator's installed tracer
*object*, which must not be written to (its events would be lost and the
pid sequence corrupted).  When the coordinator traces, the worker installs
a **fresh** local tracer before building anything; the scopes its
platforms allocate get local pids which the coordinator later renumbers
into the pid block it reserved (see ``Tracer.reserve_pids``/``ingest``).
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Tuple

from repro.parallel.opstream import FrameDecoder
from repro.parallel.speculate import capture_eviction_undo, reinstate_eviction


def shard_worker_main(
    worker_index: int,
    node_descs: List[Tuple[int, str, Tuple[str, ...]]],
    params,
    max_oversub: int,
    tracing: bool,
    first_pid: int,
    op_queue,
    ack_queue,
) -> None:  # pragma: no cover - runs in a forked subprocess
    """Entry point of one shard worker process.

    ``node_descs`` is ``[(global_index, name, slots), ...]`` in global
    node order.  Messages on ``op_queue``:

    * ``("ops", frame_bytes)`` — apply a batch of
      ``(global_index, epoch_ps, op, payload)`` ops, decoded by this
      stream's :class:`~repro.parallel.opstream.FrameDecoder`
    * ``("checkpoint", token, global_index, tenant_name)`` — quiesce and
      serialize one resident guest; ack ``("checkpoint", worker_index,
      token, checkpoint_or_None, errors)``
    * ``("sync", token)`` — barrier ack: ``("sync", token, errors)``
    * ``("gather", token)`` — per-node reports (simulated time, metric
      snapshot, occupancy)
    * ``("trace", token)`` — export the local tracer's events, once
    * ``("exit",)`` — leave the loop

    The worker never raises out of the loop: failures are captured and
    surfaced through the next ``sync``/``gather`` ack so the coordinator
    can raise with the worker's traceback attached.
    """
    from repro.fleet.node import FleetNode, NodeSpec
    from repro.hv.checkpoint import IncrementalCheckpointer
    from repro.telemetry.tracer import install_tracer, uninstall_tracer

    local_tracer = None
    errors: List[str] = []
    nodes: Dict[int, object] = {}
    pid_by_node: Dict[int, int] = {}
    #: Per-node speculative-eviction undo log, in application order.
    undo_logs: Dict[int, List[object]] = {}
    checkpointer = IncrementalCheckpointer()
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

    def retire_committed(global_index: int, epoch_ps: int) -> None:
        """Drop undo entries whose grants have committed (epoch <= now).

        Any entry still live after that proves the coordinator let a
        regular op overtake an unresolved grant — a protocol bug.
        """
        log = undo_logs.get(global_index)
        if not log:
            return
        live = []
        for undo in log:
            if undo.grant_epoch <= epoch_ps:
                checkpointer.forget(undo.vaccel.vaccel_id)
            else:
                live.append(undo)
        log[:] = live
        if log:
            raise RuntimeError(
                f"speculation protocol violation on node {global_index}: "
                f"regular op at epoch {epoch_ps} with unresolved grants at "
                f"epochs {[u.grant_epoch for u in log]}"
            )

    def drain_undo_logs() -> None:
        """A barrier/gather means every outstanding grant was resolved
        coordinator-side; surviving entries are committed leftovers."""
        for log in undo_logs.values():
            for undo in log:
                checkpointer.forget(undo.vaccel.vaccel_id)
            log.clear()

    while True:
        message = op_queue.get()
        kind = message[0]
        if kind == "exit":
            return
        if kind == "ops":
            for global_index, epoch_ps, op, payload in decoder.decode(message[1]):
                try:
                    if op == "spec_evict":
                        tenant_name = payload[0]
                        undo = capture_eviction_undo(
                            nodes[global_index],
                            tenant_name,
                            epoch_ps,
                            checkpointer,
                        )
                        nodes[global_index].evict(tenant_name)
                        undo_logs.setdefault(global_index, []).append(undo)
                    elif op == "spec_rollback":
                        _rollback(
                            nodes[global_index],
                            undo_logs.get(global_index, []),
                            payload[0],
                            checkpointer,
                        )
                    else:
                        retire_committed(global_index, epoch_ps)
                        _apply(nodes[global_index], op, payload)
                except BaseException:
                    errors.append(
                        f"node {global_index} op {op}{payload!r} at epoch "
                        f"{epoch_ps}:\n{traceback.format_exc()}"
                    )
        elif kind == "checkpoint":
            _kind, token, global_index, tenant_name = message
            checkpoint = None
            try:
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
            drain_undo_logs()
            ack_queue.put(("sync", worker_index, message[1], list(errors)))
        elif kind == "gather":
            drain_undo_logs()
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
            events = local_tracer.export_events() if local_tracer is not None else []
            ack_queue.put(("trace", worker_index, message[1], events, list(errors)))


def _rollback(node, log: List[object], tenant_names, checkpointer) -> None:
    """Reinstate the named speculative evictions, newest first."""
    names = set(tenant_names)
    doomed = [u for u in log if u.tenant_name in names]
    if len(doomed) != len(names):
        missing = names - {u.tenant_name for u in doomed}
        raise RuntimeError(
            f"rollback of unknown speculative evictions on {node.name}: "
            f"{sorted(missing)}"
        )
    log[:] = [u for u in log if u.tenant_name not in names]
    for undo in reversed(doomed):
        reinstate_eviction(node, undo)
        checkpointer.forget(undo.vaccel.vaccel_id)


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
