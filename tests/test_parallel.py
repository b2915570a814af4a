"""Tests for ``repro.parallel``: pool, epoch engine, sharded determinism.

The load-bearing guarantee of the sharded fleet executor is that results
are **byte-identical** to serial execution — same ``--json`` envelopes,
same metric summaries, same trace files — at any shard count.  These
tests byte-compare real CLI output and real merged traces across shard
counts and seeds, plus unit-test the pieces (worker pool, dispatch
heuristic, shadow verification plumbing).
"""

import json

import pytest

from repro import __main__ as cli


# -- the persistent worker pool ------------------------------------------------


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _resolved_fast_path(_item):
    from repro.platform import PlatformParams

    return PlatformParams().fast_path


def _kill_own_process_on_two(value):
    import os
    import signal

    if value == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


@pytest.fixture
def pool_map():
    from repro.parallel import pool_map, shutdown_shared_pool

    yield pool_map
    shutdown_shared_pool()


@pytest.fixture
def always_fan_out(monkeypatch):
    """Send every parallel_map sweep to the pool, however cheap its cells."""
    from repro.parallel import shutdown_shared_pool

    monkeypatch.setattr(
        "repro.parallel.pool.dispatch_plan", lambda probe_s, remaining, jobs: True
    )
    yield
    shutdown_shared_pool()


class TestWorkerPool:
    def test_map_returns_results_in_item_order(self, pool_map):
        assert pool_map(_square, [3, 1, 4, 1, 5], 2) == [9, 1, 16, 1, 25]

    def test_pool_survives_across_map_calls(self, pool_map):
        from repro.parallel import shared_pool

        first = pool_map(_square, list(range(6)), 2)
        pool = shared_pool(2)
        second = pool_map(_square, list(range(6)), 2)
        assert shared_pool(2) is pool
        assert first == second == [v * v for v in range(6)]

    def test_worker_failure_reraises_with_traceback(self, pool_map):
        with pytest.raises(ValueError, match="three is right out") as raised:
            pool_map(_fail_on_three, [1, 2, 3, 4], 2)
        # The worker-side traceback rides along as the cause.
        assert "_fail_on_three" in str(raised.value.__cause__)

    def test_shared_pool_reuses_and_grows(self):
        from repro.parallel import shared_pool, shutdown_shared_pool

        try:
            small = shared_pool(1)
            again = shared_pool(1)
            assert again is small
            grown = shared_pool(2)
            assert grown is not small
            assert grown._max_workers == 2
            # Asking for fewer workers never shrinks the pool.
            assert shared_pool(1) is grown
        finally:
            shutdown_shared_pool()

    def test_workers_forked_in_fast_mode_serve_a_reference_sweep(
        self, monkeypatch, always_fan_out
    ):
        # Regression: the pool served cells in the mode it was forked in, so
        # --reference --jobs N after one fast fan-out in the same process ran
        # the probe cell on the reference path and the rest on the fast path.
        from repro.experiments.harness import parallel_map

        monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
        assert parallel_map(_resolved_fast_path, range(3), jobs=2) == [True] * 3
        with cli._reference_mode(True):
            assert parallel_map(_resolved_fast_path, range(3), jobs=2) == [False] * 3
        assert parallel_map(_resolved_fast_path, range(3), jobs=2) == [True] * 3

    def test_killed_worker_ends_a_jobs_sweep_with_a_typed_error(self, always_fan_out):
        # Regression: the hand-rolled pool blocked forever in its result
        # queue when a worker died (OOM kill, segfault) mid-cell.  The sweep
        # runs on a thread so that a hang fails this test instead of the suite.
        import multiprocessing
        import threading

        from repro.errors import ReproError, WorkerDiedError
        from repro.experiments.harness import parallel_map

        raised = []

        def sweep():
            try:
                # Item 1 is the inline probe; the pool gets 2 (the killer), 3, 4.
                parallel_map(_kill_own_process_on_two, range(1, 5), jobs=2)
            except BaseException as error:
                raised.append(error)

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "the sweep hung on its dead worker"
        (error,) = raised
        assert isinstance(error, WorkerDiedError) and isinstance(error, ReproError)
        assert "_kill_own_process_on_two" in str(error)  # names the sweep
        assert multiprocessing.active_children() == []  # no orphan worker
        # The broken pool was dropped: the next sweep gets a fresh one.
        assert parallel_map(_square, range(4), jobs=2) == [0, 1, 4, 9]


class TestDispatchPlan:
    def test_serial_when_jobs_is_one(self):
        from repro.parallel import dispatch_plan

        assert dispatch_plan(10.0, 100, jobs=1) is False

    def test_serial_when_cells_are_cheaper_than_dispatch(self):
        from repro.parallel import DISPATCH_OVERHEAD_S, dispatch_plan

        assert dispatch_plan(DISPATCH_OVERHEAD_S / 10, 100, jobs=4) is False

    def test_parallel_when_the_budget_clears(self):
        from repro.parallel import MIN_PARALLEL_BUDGET_S, dispatch_plan

        probe = MIN_PARALLEL_BUDGET_S  # one cell alone clears the budget
        assert dispatch_plan(probe, 4, jobs=4) is True

    def test_serial_when_total_work_is_too_small(self):
        from repro.parallel import DISPATCH_OVERHEAD_S, dispatch_plan

        # Cells clear the per-cell bar but there is only one of them.
        assert dispatch_plan(DISPATCH_OVERHEAD_S * 1.5, 1, jobs=8) is False


# -- trace merge plumbing ------------------------------------------------------


class TestTracerMerge:
    def test_reserve_pids_claims_a_block(self):
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
        first = tracer.reserve_pids(3)
        assert first == 1
        scope = tracer.scope("after")
        assert scope.pid == 4

    def test_ingest_remaps_pids(self):
        from repro.telemetry.tracer import Tracer

        coordinator = Tracer()
        coordinator.reserve_pids(2)
        worker = Tracer()
        worker.scope("sim").instant("evt", 10)
        coordinator.ingest(worker.export_events(), pid_map={1: 2})
        pids = {event["pid"] for event in coordinator.to_chrome()["traceEvents"]}
        assert pids == {2}

    def test_merged_trace_serializes_identically_to_direct_emission(self):
        from repro.telemetry.tracer import Tracer

        direct = Tracer()
        direct.scope("a").instant("x", 5)
        direct.scope("b").instant("y", 7)

        merged = Tracer()
        merged.reserve_pids(2)
        worker_a, worker_b = Tracer(), Tracer()
        worker_a.scope("a").instant("x", 5)
        worker_b.scope("b").instant("y", 7)
        merged.ingest(worker_a.export_events(), pid_map={1: 1})
        merged.ingest(worker_b.export_events(), pid_map={1: 2})
        assert merged.to_json() == direct.to_json()


# -- byte-identical sharded execution ------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


FLEET_ARGS = ("fleet", "--nodes", "4", "--requests", "48", "--json")
CHAOS_ARGS = (
    "chaos", "fleet", "--plan", "single-node-crash",
    "--requests", "40", "--json",
)


#: The sharded execution matrix every envelope must survive unchanged:
#: conservative per-epoch streaming and speculative lookahead, at both
#: shard counts.
SHARD_MATRIX = [(2, 0), (2, 2), (3, 0), (3, 8)]


class TestShardedByteIdentity:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fleet_envelope_identical_across_shard_counts(self, capsys, seed):
        code, serial = run_cli(capsys, *FLEET_ARGS, "--seed", str(seed))
        assert code == 0
        for shards, lookahead in SHARD_MATRIX:
            code, sharded = run_cli(
                capsys, *FLEET_ARGS, "--seed", str(seed),
                "--shards", str(shards), "--lookahead", str(lookahead),
            )
            assert code == 0
            assert sharded == serial  # byte-identical, not just equivalent

    @pytest.mark.parametrize("seed", [1, 2])
    def test_chaos_envelope_identical_across_shard_counts(self, capsys, seed):
        code, serial = run_cli(capsys, *CHAOS_ARGS, "--seed", str(seed))
        assert code == 0
        for shards, lookahead in SHARD_MATRIX:
            code, sharded = run_cli(
                capsys, *CHAOS_ARGS, "--seed", str(seed),
                "--shards", str(shards), "--lookahead", str(lookahead),
            )
            assert code == 0
            assert sharded == serial

    def test_single_node_fleet_bypasses_the_fork_pool(self, capsys):
        # --shards on a 1-node fleet degenerates to the serial path:
        # identical envelope, and no ShardedFleetCluster is ever built.
        import repro.parallel.executor as executor

        code, serial = run_cli(
            capsys, "fleet", "--nodes", "1", "--requests", "24", "--json"
        )
        assert code == 0
        built = []
        original = executor.ShardedFleetCluster.__init__

        def spy(self, *args, **kwargs):
            built.append(True)
            return original(self, *args, **kwargs)

        executor.ShardedFleetCluster.__init__ = spy
        try:
            code, sharded = run_cli(
                capsys, "fleet", "--nodes", "1", "--requests", "24",
                "--json", "--shards", "4", "--lookahead", "8",
            )
        finally:
            executor.ShardedFleetCluster.__init__ = original
        assert code == 0
        assert sharded == serial
        assert built == []

    def test_fleet_envelope_reports_per_node_simulated_time(self, capsys):
        code, out = run_cli(capsys, *FLEET_ARGS, "--seed", "1")
        assert code == 0
        nodes = json.loads(out)["results"]["nodes"]
        assert set(nodes) == {f"node{i}" for i in range(4)}
        assert all("simulated_ps" in report for report in nodes.values())


def serve_surfaces(
    shards,
    lookahead=0,
    *,
    seed=1,
    plan=None,
    standby=(),
    gateway=False,
    traced=False,
    requests=36,
):
    """One serve on ``open_fleet(3, shards, lookahead)`` through the one
    loop, bare or observed by a :class:`Gateway`; returns every
    observation surface as one canonical string, plus the op-stream
    ledger (``{}`` on real nodes).  Shared with ``test_speculation``."""
    from repro.faults import resolve_plan
    from repro.fleet import (
        AutoscaleConfig,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        make_policy,
        open_fleet,
    )
    from repro.scenario.properties import check_ledgers
    from repro.serve import Gateway, ServeProfile, synthesize
    from repro.telemetry.tracer import install_tracer, uninstall_tracer

    tracer = install_tracer() if traced else None
    try:
        with open_fleet(3, shards=shards, lookahead=lookahead) as cluster:
            service = FleetService(cluster, make_policy("best-fit"))
            if plan is not None:
                service.install_faults(resolve_plan(plan))
            if standby:
                service.install_autoscaler(AutoscaleConfig(standby_nodes=standby))
            surfaces = {}
            if gateway:
                trace = synthesize(
                    ServeProfile(load=0.85, followup_prob=0.3),
                    sessions=requests,
                    fleet_slots=cluster.total_slots,
                    seed=seed,
                )
                observed = Gateway(service, trace).run()
                result = observed.serve
                surfaces["gateway"] = observed.to_dict()
            else:
                generator = TrafficGenerator(
                    TrafficProfile(load=0.85),
                    fleet_slots=cluster.total_slots,
                    seed=seed,
                )
                result = service.serve(generator.generate(requests))
            assert check_ledgers(cluster) == []
            surfaces.update(
                summary=result.summary(),
                outcomes=dict(result.outcomes),
                nodes=cluster.simulated_report(),
                metrics=cluster.metrics_snapshot(),
                occupancy=cluster.occupancy_report(),
            )
            stats = cluster.opstream_stats()
        if tracer is not None:
            tracer.finalize()
            surfaces["trace"] = tracer.to_json()
        return json.dumps(surfaces, sort_keys=True, default=str), stats
    finally:
        if tracer is not None:
            uninstall_tracer()


#: Serial, conservative streaming, and two speculation depths.
FLEET_MATRIX = [(1, 0), (2, 0), (2, 4), (3, 8)]


class TestOneLoopEveryFleet:
    """The one ``FleetService`` over whatever ``open_fleet`` returns."""

    @pytest.mark.parametrize("gateway", [False, True], ids=["bare", "gateway"])
    @pytest.mark.parametrize("shards,lookahead", FLEET_MATRIX)
    def test_surfaces_match_serial(self, shards, lookahead, gateway):
        serial, no_stats = serve_surfaces(1, gateway=gateway)
        surfaces, stats = serve_surfaces(shards, lookahead, gateway=gateway)
        assert surfaces == serial
        assert no_stats == {} and bool(stats) == (shards > 1)

    @pytest.mark.parametrize("n_nodes,shards", [(1, 4), (4, 1)])
    def test_nothing_to_partition_builds_real_nodes_and_forks_nothing(
        self, n_nodes, shards
    ):
        import multiprocessing

        from repro.fleet import FleetCluster, open_fleet

        before = multiprocessing.active_children()
        with open_fleet(n_nodes, shards=shards, lookahead=8) as cluster:
            assert type(cluster) is FleetCluster
            assert multiprocessing.active_children() == before

    def test_workers_are_stopped_when_the_block_raises(self):
        import multiprocessing

        from repro.fleet import open_fleet

        def shard_workers():
            return [
                child
                for child in multiprocessing.active_children()
                if child.name.startswith("repro-shard-")
            ]

        with pytest.raises(ZeroDivisionError):
            with open_fleet(3, shards=2, lookahead=4):
                assert len(shard_workers()) == 2
                1 / 0
        assert shard_workers() == []

    def test_the_serving_loop_has_no_subclasses(self):
        # The structural pin: execution strategy lives in the cluster and
        # extensions in the observer slot, never in a FleetService subclass.
        import repro.analytic  # noqa: F401
        import repro.parallel  # noqa: F401
        import repro.scenario  # noqa: F401
        import repro.serve  # noqa: F401
        from repro.fleet import FleetService

        assert FleetService.__subclasses__() == []
        assert repro.parallel.ShardedFleetService is FleetService
        assert repro.serve.GatewayFleetService is FleetService

    def test_gateway_refuses_a_service_that_already_has_an_observer(self):
        from repro.errors import ConfigurationError
        from repro.fleet import FleetObserver, FleetService, make_policy, open_fleet
        from repro.serve import Gateway, ServeProfile, synthesize

        with open_fleet(1) as cluster:
            service = FleetService(
                cluster, make_policy("best-fit"), observer=FleetObserver()
            )
            trace = synthesize(ServeProfile(), sessions=4, fleet_slots=6, seed=1)
            with pytest.raises(ConfigurationError, match="already has an observer"):
                Gateway(service, trace)


class TestShardedTraces:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_trace_files_identical_across_shard_counts(self, seed, with_faults):
        plan = "single-node-crash" if with_faults else None
        serial, _ = serve_surfaces(1, seed=seed, plan=plan, traced=True)
        for shards, lookahead in SHARD_MATRIX:
            sharded, _ = serve_surfaces(
                shards, lookahead, seed=seed, plan=plan, traced=True
            )
            assert sharded == serial


class TestShardedClusterSurface:
    def test_shards_clamp_to_node_count(self):
        from repro.parallel import ShardedFleetCluster

        with ShardedFleetCluster.build(2, shards=8) as cluster:
            assert cluster.shards == 2
            assert len(cluster.nodes) == 2

    def test_close_is_idempotent(self):
        from repro.parallel import ShardedFleetCluster

        cluster = ShardedFleetCluster.build(1, shards=1)
        cluster.close()
        cluster.close()

    def test_divergence_is_detected_at_the_barrier(self):
        from repro.parallel import ShardedFleetCluster

        cluster = ShardedFleetCluster.build(1, shards=1)
        try:
            node = cluster.nodes[0]
            accel = node.configuration.slots[0]
            candidates = node.configuration.slots_of_type(accel)
            assert len(candidates) > 1  # default template has two AES slots
            # Corrupt the shadow bookkeeping so it predicts a different
            # slot than the real provider will pick: mark the lowest-index
            # candidate occupied, skewing the least-occupied selection.
            node.slots.add(min(candidates))
            cluster.place("tenant0", accel, _FirstSlotPolicy())
            with pytest.raises(RuntimeError, match="diverged"):
                cluster.barrier()
        finally:
            cluster.close()


class _FirstSlotPolicy:
    def choose(self, nodes, accel_type):
        return nodes[0]
