"""The sharded fleet executor: shadow coordinator + shard workers.

:class:`ShardedFleetCluster` presents the exact
:class:`~repro.fleet.cluster.FleetCluster` surface the serving loop and
the fault injector consume, but behind it the real per-node platform
stacks live in shard worker processes:

* the coordinator answers every control-plane read from its
  :class:`~repro.parallel.shadow.ShadowCluster` bookkeeping (no IPC on
  the serving loop's hot path);
* every mutation is emitted as an op into a per-shard buffer and flushed
  asynchronously as binary frames (:mod:`repro.parallel.opstream`),
  stamped with the epoch it belongs to.  With ``lookahead == 0`` a
  flush happens at every epoch boundary (the conservative protocol);
  with ``lookahead = K`` flushes coalesce up to K epochs per frame
  *and* the coordinator grants shard workers permission to run granted
  evictions up to K epochs ahead of the serving clock
  (:mod:`repro.parallel.speculate`) — committed by suppression when the
  speculated departure arrives on schedule, unwound by a typed rollback
  op travelling ahead of any conflicting truth in the same FIFO stream;
* observation points (:meth:`gather`, :meth:`merge_traces`,
  :meth:`close`) are the only barriers; :meth:`gather` is memoized on
  the op stream (three summary surfaces cost one round trip).

Because all admission/placement/fault *decisions* are taken against the
shadow — which replicates the provider's slot selection and the node
health machine exactly, and is verified op-by-op by the workers — serve
results, metric summaries, traces, and chaos envelopes are byte-identical
to a serial run by construction, at any ``(shards, lookahead)``.

The serving loop is the one :class:`~repro.fleet.admission.FleetService`:
it calls :meth:`ShardedFleetCluster.advance_epoch` (with itself, for
speculation-window scans) as its clock moves and :meth:`end_serve` — a
verification barrier + trace merge — when its engine drains; both are
no-ops on a cluster of real nodes.  Build through
:func:`repro.fleet.open_fleet`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.library import FpgaConfiguration
from repro.errors import ConfigurationError, UnknownTenantError
from repro.fleet.cluster import DEFAULT_TEMPLATES
from repro.fleet.node import DEFAULT_MAX_OVERSUB
from repro.parallel.opstream import FrameEncoder, OpStreamStats
from repro.parallel.pool import fork_context
from repro.parallel.shadow import ShadowCluster, ShadowNode
from repro.parallel.shard import shard_worker_main
from repro.parallel.speculate import SpeculationController, conflict_class
from repro.telemetry.tracer import current_tracer


class _Shard:
    """Coordinator-side handle of one worker process."""

    __slots__ = (
        "index",
        "process",
        "op_queue",
        "ack_queue",
        "buffer",
        "encoder",
    )

    def __init__(self, index: int, process, op_queue, ack_queue) -> None:
        self.index = index
        self.process = process
        self.op_queue = op_queue
        self.ack_queue = ack_queue
        #: Ops accumulated since the last flush: (node, epoch, op, payload).
        self.buffer: List[Tuple[int, int, str, tuple]] = []
        #: Stateful binary codec for this stream (epoch delta chain +
        #: string intern table persist across frames).
        self.encoder = FrameEncoder()


class ShardedFleetCluster(ShadowCluster):
    """A fleet cluster whose real nodes live in shard worker processes."""

    def __init__(
        self,
        specs: Sequence[Tuple[str, Tuple[str, ...]]],
        *,
        shards: int,
        params=None,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
        lookahead: int = 0,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        if lookahead < 0:
            raise ConfigurationError("lookahead must be >= 0")
        n_nodes = len(specs)
        self.shards = min(shards, n_nodes)
        self.lookahead = lookahead
        self._closed = False
        self._epoch_ps = 0
        self._epochs_since_flush = 0
        self._service = None
        self._event_context = ""
        self._speculation = SpeculationController(lookahead)
        self._stats = OpStreamStats()
        self._stats.lookahead = lookahead
        #: Memoized :meth:`gather` result; invalidated by any op emission.
        self._gather_cache: Optional[Dict[int, Dict[str, object]]] = None
        self._tracer = current_tracer()
        # Reserve the pid block the serial build would have consumed (one
        # engine scope per node, in node order) *before* any other scope
        # (fleet metrics, fault injector) is created by the caller.
        if self._tracer is not None:
            self._first_pid = self._tracer.reserve_pids(n_nodes)
        else:
            self._first_pid = 0

        context = fork_context()
        self._shards: List[_Shard] = []
        assignments: List[List[Tuple[int, str, Tuple[str, ...]]]] = [
            [] for _ in range(self.shards)
        ]
        for index, (name, slots) in enumerate(specs):
            assignments[index % self.shards].append((index, name, tuple(slots)))
        for shard_index, descs in enumerate(assignments):
            op_queue = context.SimpleQueue()
            ack_queue = context.SimpleQueue()
            process = context.Process(
                target=shard_worker_main,
                args=(
                    shard_index,
                    descs,
                    params,
                    max_oversub,
                    self._tracer is not None,
                    self._first_pid,
                    op_queue,
                    ack_queue,
                ),
                daemon=True,
                name=f"repro-shard-{shard_index}",
            )
            process.start()
            self._shards.append(_Shard(shard_index, process, op_queue, ack_queue))

        # Workers build their nodes concurrently; collect pid maps.
        self._owner: Dict[int, _Shard] = {}
        self._pid_maps: Dict[int, Dict[int, int]] = {}
        for shard, descs in zip(self._shards, assignments):
            for index, _name, _slots in descs:
                self._owner[index] = shard
        for shard in self._shards:
            kind, worker_index, pid_by_node, error = shard.ack_queue.get()
            assert kind == "built"
            if error is not None:
                self.close()
                raise RuntimeError(f"shard {worker_index} failed to build:\n{error}")
            self._pid_maps[worker_index] = pid_by_node

        nodes = [
            ShadowNode(
                index,
                name,
                FpgaConfiguration.synthesize(slots),
                max_oversub=max_oversub,
                emit=self._emit,
            )
            for index, (name, slots) in enumerate(specs)
        ]
        super().__init__(nodes)

    @classmethod
    def build(
        cls,
        n_nodes: int,
        *,
        shards: int,
        templates: Optional[Sequence[Sequence[str]]] = None,
        params=None,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
        lookahead: int = 0,
    ) -> "ShardedFleetCluster":
        """Same fleet :meth:`FleetCluster.build` produces, sharded S ways."""
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        templates = [tuple(t) for t in (templates or DEFAULT_TEMPLATES)]
        specs = [
            (f"node{i}", templates[i % len(templates)]) for i in range(n_nodes)
        ]
        return cls(
            specs,
            shards=shards,
            params=params,
            max_oversub=max_oversub,
            lookahead=lookahead,
        )

    # -- speculation-aware epoch contract ------------------------------------

    def note_event(self, kind: str, now: int) -> str:
        """Record the event context ops are being emitted under.

        Conflict-class attribution for rollbacks (DESIGN.md §9): the
        serving loop labels each dispatched event; nested operations
        (autoscaler ticks, migrations) refine the label and restore the
        previous one, which this returns.
        """
        previous = self._event_context
        self._event_context = kind
        return previous

    def opstream_stats(self) -> Dict[str, object]:
        """The op-stream/speculation ledger for this run (side channel:
        never part of a result envelope — ``--shards``/``--lookahead``
        are execution details)."""
        return self._stats.to_dict()

    # -- op stream ----------------------------------------------------------

    def _emit(self, node_index: int, op: Tuple[str, tuple]) -> None:
        shard = self._owner[node_index]
        name, payload = op
        self._gather_cache = None
        if self._speculation.active:
            verdict = self._speculation.intercept(
                node_index, name, payload, self._epoch_ps
            )
            if verdict is not None:
                what, tenants = verdict
                if what == "commit":
                    # The worker already applied this eviction at grant
                    # time; arriving on schedule, it commits by omission.
                    self._stats.commits += 1
                    return
                self._issue_rollback(
                    shard,
                    node_index,
                    tenants,
                    conflict_class(self._event_context),
                )
        shard.buffer.append((node_index, self._epoch_ps, name, payload))

    def _issue_rollback(
        self,
        shard: _Shard,
        node_index: int,
        tenants: Tuple[str, ...],
        reason: str,
    ) -> None:
        """Unwind ``tenants``' speculative evictions on one node.

        Grants whose ``spec_evict`` is still sitting in the unflushed
        buffer are scrubbed in place (the worker never saw them); the
        rest get a ``spec_rollback`` op that travels ahead of whatever
        conflicting op the caller emits next.
        """
        scrubbed = set()
        doomed = set(tenants)
        kept = []
        for entry in shard.buffer:
            if (
                entry[0] == node_index
                and entry[2] == "spec_evict"
                and entry[3][0] in doomed
                and entry[3][0] not in scrubbed
            ):
                scrubbed.add(entry[3][0])
                continue
            kept.append(entry)
        shard.buffer = kept
        self._stats.scrubbed += len(scrubbed)
        shipped = tuple(t for t in tenants if t not in scrubbed)
        if shipped:
            shard.buffer.append(
                (node_index, self._epoch_ps, "spec_rollback", (shipped,))
            )
            self._stats.record_rollback(reason, len(shipped))

    def _rollback_outstanding(self, reason: str) -> None:
        """Cancel every outstanding grant (observation-point safety: a
        granted departure is a *future* event the serial loop has not
        processed, so no observed state may include its effects)."""
        for node_index in self._speculation.nodes_with_grants():
            tenants = self._speculation.cancel_node(node_index)
            if tenants:
                self._issue_rollback(
                    self._owner[node_index], node_index, tenants, reason
                )
                self._gather_cache = None

    def advance_epoch(self, epoch_ps: int, service) -> None:
        """The fleet clock moved: flush completed epochs' ops.

        ``service`` (the serving loop itself) is what the speculation
        grant scan reads the pending events through.
        """
        self._service = service
        if epoch_ps == self._epoch_ps:
            return
        self._epoch_ps = epoch_ps
        self._epochs_since_flush += 1
        if self.lookahead == 0 or self._epochs_since_flush >= self.lookahead:
            self.flush()

    def flush(self, *, grant: bool = True) -> None:
        """Grant safe speculation, then ship buffered ops (no barrier).

        Observation points pass ``grant=False``: they have just rolled
        back (or are about to inspect) speculative state, and granting in
        the same breath could re-speculate the very eviction they
        cancelled — e.g. re-evicting a tenant one op before its
        checkpoint round-trip.  Grants only ride epoch-advance flushes.
        """
        if grant:
            self._grant_speculation()
        shipped = False
        for shard in self._shards:
            if shard.buffer:
                self._ship(shard)
                shipped = True
        if shipped:
            self._stats.flushes += 1
        self._epochs_since_flush = 0

    def _grant_speculation(self) -> None:
        if self.lookahead <= 0 or self._service is None or self._closed:
            return
        for node_index, tenant, depart_ps in self._speculation.eligible(
            self._service, self
        ):
            self._speculation.grant(node_index, tenant, depart_ps)
            shard = self._owner[node_index]
            shard.buffer.append((node_index, depart_ps, "spec_evict", (tenant,)))
            self._stats.grants += 1
            self._gather_cache = None

    def _ship(self, shard: _Shard) -> None:
        batch = shard.buffer
        shard.buffer = []
        payload = shard.encoder.encode(batch)
        self._stats.frame_bytes += len(payload)
        shard.op_queue.put(("ops", payload))
        self._stats.messages += 1
        self._stats.frames += 1
        self._stats.ops += len(batch)

    def _post(self, shard: _Shard, message: tuple) -> None:
        shard.op_queue.put(message)
        self._stats.messages += 1

    def _await_ack(self, shard: _Shard):
        start = time.perf_counter()
        ack = shard.ack_queue.get()
        self._stats.barrier_stall_s += time.perf_counter() - start
        self._stats.stall_waits += 1
        return ack

    def checkpoint_tenant(self, tenant_name: str):
        """Quiesce + serialize one resident guest on its owning worker.

        A synchronous round-trip to a *single* shard (the one owning the
        tenant's node).  Outstanding grants on that node are rolled back
        first (the worker may have speculatively evicted the very guest
        being checkpointed), pending ops flushed, and SimpleQueue
        preserves order, so the worker applies every earlier mutation
        before serializing.
        """
        node = self.tenant_nodes.get(tenant_name)
        if node is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        tenants = self._speculation.cancel_node(node.index)
        if tenants:
            self._issue_rollback(
                self._owner[node.index],
                node.index,
                tenants,
                conflict_class(self._event_context or "migration"),
            )
        self.flush(grant=False)
        self._gather_cache = None
        shard = self._owner[node.index]
        self._post(shard, ("checkpoint", "ckpt", node.index, tenant_name))
        kind, _worker, token, checkpoint, worker_errors = self._await_ack(shard)
        assert kind == "checkpoint" and token == "ckpt"
        if checkpoint is None:
            raise RuntimeError(
                "sharded fleet execution diverged:\n" + "\n".join(worker_errors)
            )
        return checkpoint

    def _observe(self, kind: str, token: str) -> List[tuple]:
        """One observation round trip: cancel outstanding speculation,
        flush, post ``(kind, token)`` to every shard, and collect the acks
        (``(kind, worker_index, token, ..., errors)``) in shard order.

        Raises with the workers' tracebacks if any op failed or any
        placement diverged from the shadow's prediction.
        """
        self._rollback_outstanding("observation")
        self.flush(grant=False)
        for shard in self._shards:
            self._post(shard, (kind, token))
        acks = [self._await_ack(shard) for shard in self._shards]
        errors: List[str] = []
        for ack in acks:
            assert ack[0] == kind and ack[2] == token
            errors.extend(ack[-1])
        if errors:
            raise RuntimeError(
                "sharded fleet execution diverged:\n" + "\n".join(errors)
            )
        return acks

    def barrier(self, token: str = "sync") -> None:
        """Flush, then wait until every shard has applied everything."""
        self._observe("sync", token)

    # -- observation points (barriers) --------------------------------------

    def gather(self) -> Dict[int, Dict[str, object]]:
        """Per-node reports from the real stacks, in global node order.

        Memoized on the op stream: consecutive gathers with no
        intervening emission (the envelope builders call three summary
        surfaces back-to-back) cost one round trip total.
        """
        if self._gather_cache is not None:
            self._stats.gather_cache_hits += 1
            return self._gather_cache
        self._stats.gathers += 1
        reports: Dict[int, Dict[str, object]] = {}
        for _kind, _worker, _token, shard_reports, _errors in self._observe(
            "gather", "gather"
        ):
            reports.update(shard_reports)
        result = {index: reports[index] for index in sorted(reports)}
        self._gather_cache = result
        return result

    def simulated_report(self) -> Dict[str, Dict[str, object]]:
        """Per-node simulated time, keyed by node name (envelope shape)."""
        reports = self.gather()
        return {
            self.nodes[index].name: {"simulated_ps": report["simulated_ps"]}
            for index, report in reports.items()
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The fleet-wide metric snapshot ``FleetCluster`` would produce
        (``node<i>.<metric>`` keys from each node's platform registry)."""
        reports = self.gather()
        snapshot: Dict[str, object] = {}
        for index, report in reports.items():
            prefix = self.nodes[index].name
            for key, value in report["metrics"].items():
                snapshot[f"{prefix}.{key}"] = value
        return dict(sorted(snapshot.items()))

    def occupancy_report(self) -> Dict[str, Dict[int, Dict[str, object]]]:
        reports = self.gather()
        return {
            self.nodes[index].name: report["occupancy"]
            for index, report in reports.items()
        }

    def end_serve(self) -> None:
        """The serving loop drained: wait for the shards to finish applying
        the op stream, verify no divergence, and fold their trace events
        back into the coordinator's tracer."""
        self.barrier("serve-end")
        self.merge_traces()

    def merge_traces(self) -> None:
        """Pull every shard's trace events into the coordinator tracer,
        renumbered into the reserved pid block (serial pid order)."""
        if self._tracer is None:
            return
        for _kind, worker_index, _token, events, _errors in self._observe(
            "trace", "trace"
        ):
            pid_map = {
                local_pid: self._first_pid + node_index
                for node_index, local_pid in self._pid_maps[worker_index].items()
            }
            self._tracer.ingest(events, pid_map=pid_map)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent.  Pending ops are flushed first."""
        if self._closed:
            return
        self._closed = True
        if getattr(self, "_shards", None):
            self._rollback_outstanding("observation")
        for shard in getattr(self, "_shards", []):
            if shard.buffer:
                self._ship(shard)
            self._post(shard, ("exit",))
        for shard in getattr(self, "_shards", []):
            shard.process.join(timeout=10)
            if shard.process.is_alive():  # pragma: no cover - defensive
                shard.process.terminate()
