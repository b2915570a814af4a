"""Command-line entry point: list, run, and trace the paper's experiments.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro list --json          # same, machine-readable
    python -m repro run fig4             # one experiment
    python -m repro run all              # the whole evaluation section
    python -m repro run fig6 --jobs 8    # fan sweep cells across processes
    python -m repro run fig5 --profile   # print a cProfile summary after
    python -m repro run fig5 --json      # machine-readable result envelope
    python -m repro trace fig5 --quick   # Perfetto-loadable trace capture
    python -m repro fleet --nodes 4 --load 0.9 --seed 1   # fleet serving
    python -m repro chaos fleet --plan single-node-crash  # fault injection
    python -m repro chaos single --plan rogue-guest --json
    python -m repro serve --sessions 2000 --load 2.0      # serving gateway
    python -m repro serve --trace sessions.json --shards 2 --json
    python -m repro capacity --tenants 1000000 --load 6.0 # analytic planner
    python -m repro capacity --mode optimus --tenants 5000 --json
    python -m repro fuzz --seed 7 --count 20              # differential fuzzing
    python -m repro fuzz --replay repro-seed7-idx3-abc.json

``run`` exits non-zero if any experiment raises (and keeps going through
the rest of ``all``, reporting every failure at the end).

Every ``--json`` mode prints one envelope object to stdout —
``{"experiment": ..., "params": ..., "results": ...}`` — with all human
narration diverted to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback

from repro.envelope import emit_envelope, to_jsonable
from repro.errors import ReproError

#: Exit codes shared by every subcommand (also shown in ``--help``).
EXIT_CODES = """\
exit codes:
  0  success
  1  an experiment failed (raised; see the traceback on stderr)
  2  usage or configuration error (bad flags, invalid fleet setup)
"""

EXPERIMENTS = {
    "fig1": ("repro.experiments.fig1_sssp", "SSSP: shared-memory vs host-centric"),
    "table2": ("repro.experiments.table2_resources", "FPGA resource utilization"),
    "fig4": ("repro.experiments.fig4_overhead", "virtualization overhead vs pass-through"),
    "fig5": ("repro.experiments.fig5_latency", "LinkedList latency sweeps"),
    "fig6": ("repro.experiments.fig6_throughput", "MemBench throughput sweeps"),
    "fig7": ("repro.experiments.fig7_scaling", "real-world benchmark scaling"),
    "fig8": ("repro.experiments.fig8_temporal", "temporal multiplexing"),
    "table3": ("repro.experiments.table3_fairness", "spatial-multiplexing fairness"),
    "table4": ("repro.experiments.table4_colocation", "MemBench co-location"),
    "sec68": ("repro.experiments.sec68_schedulers", "scheduler policy enforcement"),
    "ablations": ("repro.experiments.ablations", "mux tree / IOTLB / bandwidth ablations"),
    "fleet_scaling": (
        "repro.experiments.fleet_scaling",
        "fleet throughput + rejections vs node count x offered load",
    ),
    "chaos_recovery": (
        "repro.experiments.chaos_recovery",
        "availability + placement tails vs injected node-crash rate",
    ),
    "migration_recovery": (
        "repro.experiments.migration_recovery",
        "proactive evacuation (live migration) vs reactive failover",
    ),
    "serve_slo": (
        "repro.experiments.serve_slo",
        "in-budget p99 attainment: SLO shedding vs queue-depth admission",
    ),
    "capacity_plan": (
        "repro.experiments.capacity_plan",
        "capacity sweep: analytic fast-forward vs fleet DES, side by side",
    ),
}


def _run_one(key: str, jobs: int = 1, *, quick: bool = False):
    """Run one experiment; returns ``(ok, result)`` instead of raising.

    Calls the module's ``run()`` on its default (or ``QUICK``) grid, then
    shows every table in the result and one line per claim; a missed
    claim is reported, never an error.

    When a result cache is installed (``--cache-dir``), the whole
    experiment is keyed on (registry key, grid, source-tree digest) —
    ``--jobs`` is deliberately *not* part of the key, since fan-out never
    changes results.
    """
    import importlib
    import inspect

    from repro.experiments.cache import current_cache
    from repro.experiments.harness import ResultTable

    module_name, _description = EXPERIMENTS[key]
    cache = current_cache()
    cache_key = None
    hit = False
    started = time.time()
    try:
        module = importlib.import_module(module_name)
        if cache is not None:
            cache_key = cache.key(f"cli.{key}", {"quick": quick})
            hit, result = cache.load(cache_key)
        if hit:
            print(f"### {key}: {module_name} [cached] " + "#" * 11)
        else:
            print(f"### {key}: {module_name} " + "#" * 20)
            grid = dict(module.QUICK) if quick else {}
            if jobs > 1 and "jobs" in inspect.signature(module.run).parameters:
                grid["jobs"] = jobs
            result = module.run(**grid)
            print(f"[{key} done in {time.time() - started:.1f}s wall]")
            if cache_key is not None:
                cache.store(cache_key, result)
        for table in result.values() if isinstance(result, dict) else [result]:
            if isinstance(table, ResultTable):
                table.show()
        for claim in module.CLAIMS:
            if claim.quick or not quick:
                print(claim.report(result))
    except Exception:
        traceback.print_exc()
        print(f"[{key} FAILED after {time.time() - started:.1f}s wall]")
        return False, None
    return True, result


def _maybe_dump_opstream(args: argparse.Namespace, cluster) -> None:
    """Write the op-stream ledger to ``--opstream-stats`` (side channel).

    The stats file is diagnostic output, never part of a result envelope:
    it records frame/lookahead/rollback accounting for the bench harness
    and the CI proxy gate.  A serial run writes an empty object so
    callers can treat the file's existence uniformly.
    """
    if not args.opstream_stats:
        return
    with open(args.opstream_stats, "w", encoding="utf-8") as handle:
        json.dump(cluster.opstream_stats(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _fleet_command(args: argparse.Namespace) -> int:
    from repro.fleet import (
        AdmissionConfig,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        make_policy,
        open_fleet,
    )

    with open_fleet(
        args.nodes,
        shards=args.shards,
        lookahead=args.lookahead,
        max_oversub=args.max_oversub,
    ) as cluster:
        generator = TrafficGenerator(
            TrafficProfile(load=args.load),
            fleet_slots=cluster.total_slots,
            seed=args.seed,
        )
        service = FleetService(
            cluster,
            make_policy(args.policy),
            admission=AdmissionConfig(queue_limit=args.queue, max_retries=args.retries),
        )
        result = service.serve(generator.generate(args.requests))
        node_report = cluster.simulated_report()
        _maybe_dump_opstream(args, cluster)
    if args.json:
        results = to_jsonable(result.summary())
        results["nodes"] = to_jsonable(node_report)
        # ``--shards``/``--lookahead`` are execution details, not parameters:
        # results are byte-identical at any shard count or speculation depth,
        # so they stay out of the envelope.
        emit_envelope(
            "fleet",
            {
                "nodes": args.nodes,
                "load": args.load,
                "seed": args.seed,
                "requests": args.requests,
                "policy": args.policy,
                "queue": args.queue,
                "retries": args.retries,
                "max_oversub": args.max_oversub,
            },
            results,
        )
    else:
        print(
            f"fleet: {args.nodes} nodes ({cluster.total_slots} slots), "
            f"policy {args.policy}, load {args.load}, seed {args.seed}, "
            f"{args.requests} requests"
        )
        print(result.metrics.render())
    if args.trace:
        print("\nplacement trace:")
        for line in result.metrics.trace:
            print(f"  {line}")
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    """Replay (or synthesize) a session trace through the serving gateway."""
    from repro.fleet import AdmissionConfig, FleetService, make_policy, open_fleet
    from repro.serve import (
        ArrivalTrace,
        Gateway,
        ServeProfile,
        SloBudgetPolicy,
        synthesize,
    )

    sessions = args.sessions if args.sessions is not None else (
        800 if args.quick else 2000
    )
    nodes = args.nodes if args.nodes is not None else (2 if args.quick else 3)
    with open_fleet(nodes, shards=args.shards, lookahead=args.lookahead) as cluster:
        if args.trace_file:
            trace = ArrivalTrace.load(args.trace_file)
        else:
            trace = synthesize(
                ServeProfile(
                    load=args.load,
                    followup_prob=args.followup,
                    diurnal_amplitude=args.diurnal,
                    burst_prob=args.burst,
                ),
                sessions=sessions,
                fleet_slots=cluster.total_slots,
                seed=args.seed,
            )
        if args.save_trace:
            path = trace.write_json(args.save_trace)
            print(f"serve: wrote trace {path}", file=sys.stderr)
        admission_policy = (
            SloBudgetPolicy() if args.admission == "slo-budget" else None
        )
        service = FleetService(
            cluster,
            make_policy(args.policy),
            admission=AdmissionConfig(
                queue_limit=args.queue, max_retries=args.retries
            ),
            admission_policy=admission_policy,
        )
        result = Gateway(service, trace).run()
        _maybe_dump_opstream(args, cluster)
    results = to_jsonable(result.to_dict())
    if args.json:
        # ``--shards``/``--lookahead`` are execution details: envelopes are
        # byte-identical at any shard count or speculation depth, so they
        # stay out of the params block.  The
        # trace is identified by digest, not file path: synthesizing a
        # trace and replaying its saved copy are the same experiment.
        emit_envelope(
            "serve",
            {
                "trace": result.trace_digest,
                "sessions": sessions,
                "seed": args.seed,
                "load": args.load,
                "followup": args.followup,
                "diurnal": args.diurnal,
                "burst": args.burst,
                "nodes": nodes,
                "policy": args.policy,
                "admission": args.admission,
                "queue": args.queue,
                "retries": args.retries,
                "quick": args.quick,
            },
            results,
        )
        return 0
    trace_info = results["trace"]
    print(
        f"serve: {trace_info['sessions']} sessions in {trace_info['chains']} "
        f"chains (trace {trace_info['name']}, digest {trace_info['digest']}), "
        f"{nodes} nodes, admission {args.admission}"
    )
    session_info = results["sessions"]
    print(f"outcomes: {session_info['outcomes']}")
    print(
        f"availability: {session_info['availability']:.4f}  "
        f"abandoned: {session_info['abandoned']}"
    )
    for name, stats in results["classes"].items():
        p99 = stats.get("admit_p99_ps")
        tail = f"  admit p99 {p99 / 1e9:.2f} ms" if p99 else ""
        print(
            f"  {name:<8} admitted {stats.get('admitted', 0):>6}  "
            f"shed {stats.get('shed', 0):>5}  "
            f"failed {stats.get('failed', 0):>4}{tail}"
        )
    if results["slo"] is not None:
        for name, stats in results["slo"]["classes"].items():
            print(
                f"  slo[{name}]: attainment {stats['attainment']:.4f} "
                f"(budget {stats['budget_ps'] / 1e9:.2f} ms, "
                f"estimate {stats['estimate_ps'] / 1e9:.2f} ms)"
            )
    return 0


def _capacity_command(args: argparse.Namespace) -> int:
    """One capacity-planning question, answered by the chosen backend."""
    from repro.analytic import CapacityConfig, default_store, run_capacity
    from repro.sim.clock import ms

    config = CapacityConfig(
        tenants=args.tenants,
        nodes=args.nodes,
        load=args.load,
        seed=args.seed,
        mean_session_ps=ms(args.mean_session_ms),
        horizon_ps=int(args.horizon_s * 10**12),
        bootstrap=args.bootstrap,
    )
    results = run_capacity(args.mode, config, goodput=not args.no_goodput)
    if args.json:
        emit_envelope(
            "capacity",
            {
                "mode": args.mode,
                "tenants": args.tenants,
                "nodes": args.nodes,
                "load": args.load,
                "seed": args.seed,
                "mean_session_ms": args.mean_session_ms,
                "horizon_s": args.horizon_s,
                "bootstrap": args.bootstrap,
                "goodput": not args.no_goodput,
            },
            results,
        )
        return 0
    print(
        f"capacity[{args.mode}/{results['engine']}]: {args.tenants} tenants, "
        f"{args.nodes} nodes, load {args.load}, seed {args.seed}"
    )
    latency = results["latency_ps"]
    cis = results.get("latency_ci95_ps") or {}
    print(
        f"placed {results['placements']:.1f} / {results['requests']} "
        f"(rejection rate {results['rejection_rate']:.4f})"
    )
    mean_ci = cis.get("mean_ps")
    ci_note = (
        f"  [ci95 {mean_ci[0] / 1e9:.3f}..{mean_ci[1] / 1e9:.3f}]"
        if mean_ci
        else ""
    )
    print(
        f"latency: mean {latency['mean'] / 1e9:.3f} ms{ci_note}  "
        f"p50 {latency['p50'] / 1e9:.3f} ms  p99 {latency['p99'] / 1e9:.3f} ms"
    )
    for name, stats in results["classes"].items():
        ci = stats.get("attainment_ci95") or []
        tail = f"  [ci95 {ci[0]:.4f}..{ci[1]:.4f}]" if ci else ""
        print(
            f"  {name:<8} budget {stats['budget_ps'] / 1e9:>6.1f} ms  "
            f"share {stats['share']:.2f}  "
            f"attainment {stats['attainment']:.4f}{tail}"
        )
    util = "  ".join(
        f"{t}={u:.2f}" for t, u in sorted(results["utilization_by_type"].items())
    )
    print(f"utilization/slot: {util}")
    if results["goodput_gbps_by_type"]:
        goodput = "  ".join(
            f"{t}={v:.1f}" for t, v in sorted(results["goodput_gbps_by_type"].items())
        )
        print(f"goodput GB/s: {goodput}")
    print(
        f"span {results['span_ps'] / 1e12:.3f} s  "
        f"calibration digest {results['calibration_digest']}  "
        f"cells {len(default_store())}"
    )
    return 0


def _chaos_command(args: argparse.Namespace) -> int:
    """Replay a fault plan and report injected events vs recovery outcomes."""
    import dataclasses

    from repro.faults import resolve_plan, run_single_chaos
    from repro.sim.clock import ms

    plan = resolve_plan(args.plan)
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    if args.experiment == "fleet":
        from repro.fleet import (
            FleetService,
            TrafficGenerator,
            TrafficProfile,
            make_policy,
            open_fleet,
        )

        with open_fleet(
            args.nodes, shards=args.shards, lookahead=args.lookahead
        ) as cluster:
            generator = TrafficGenerator(
                TrafficProfile(load=args.load),
                fleet_slots=cluster.total_slots,
                seed=args.traffic_seed,
            )
            service = FleetService(cluster, make_policy(args.policy))
            service.install_faults(plan)
            if args.autoscale:
                from repro.fleet import AutoscaleConfig

                if args.autoscale >= args.nodes:
                    raise ReproError(
                        f"--autoscale {args.autoscale} must leave at least "
                        f"one active node (fleet has {args.nodes})"
                    )
                standby = tuple(
                    f"node{i}"
                    for i in range(args.nodes - args.autoscale, args.nodes)
                )
                service.install_autoscaler(
                    AutoscaleConfig(standby_nodes=standby)
                )
            if args.drain_node:
                service.schedule_op(
                    ms(args.drain_at_ms), "drain", node_name=args.drain_node
                )
            result = service.serve(generator.generate(args.requests))
            results = {
                "plan": to_jsonable(plan.to_dict()),
                "injected": to_jsonable(result.fault_log.summary()),
                "outcomes": result.outcome_counts(),
                "availability": result.availability(),
                "summary": to_jsonable(result.summary()),
                "nodes": to_jsonable(cluster.simulated_report()),
            }
            if service.autoscaler is not None:
                results["autoscaler"] = to_jsonable(
                    service.autoscaler.summary()
                )
            _maybe_dump_opstream(args, cluster)
    else:  # single
        report = run_single_chaos(plan, window_ps=ms(args.window_ms))
        results = {
            "plan": to_jsonable(plan.to_dict()),
            "injected": to_jsonable(report["fault_log"]),
            "report": to_jsonable(report),
        }
    if args.json:
        params = {
            "mode": args.experiment,
            "plan": args.plan,
            "seed": plan.seed,
            "nodes": args.nodes,
            "requests": args.requests,
            "load": args.load,
            "traffic_seed": args.traffic_seed,
            "policy": args.policy,
            "window_ms": args.window_ms,
        }
        # Only stamped when requested, so legacy envelopes stay
        # byte-identical.
        if args.autoscale:
            params["autoscale_standby"] = args.autoscale
        if args.drain_node:
            params["drain_node"] = args.drain_node
            params["drain_at_ms"] = args.drain_at_ms
        emit_envelope("chaos", params, results)
        return 0
    print(f"chaos[{args.experiment}]: plan {plan.name} (seed {plan.seed}, "
          f"digest {plan.digest()})")
    for event in results["injected"]["events"]:
        details = event.get("details", {})
        extra = f" {details}" if details else ""
        print(f"  {event['at_ps']:>15} ps  {event['kind']:<18} "
              f"{event['target']:<10} -> {event['outcome']}{extra}")
    if args.experiment == "fleet":
        print(f"outcomes: {results['outcomes']}")
        print(f"availability: {results['availability']:.4f}")
        if "autoscaler" in results:
            print(f"autoscaler: {results['autoscaler']['by_action']}")
    else:
        report = results["report"]
        print(f"victim progress: {report['victim_progress_units']} units")
        print(f"violations: {report['violations']}")
        print(f"quarantined: {report['watchdog']['quarantined'] or 'none'}")
    print(f"recovery digest: {results['injected']['digest']}")
    return 0


def _fuzz_command(args: argparse.Namespace) -> int:
    """Constrained-random differential fuzzing over the whole stack."""
    from repro.scenario import FuzzConfig, replay, run_fuzz

    def narrate(line: str) -> None:
        print(line, file=sys.stderr)

    try:
        if args.replay:
            result = replay(args.replay)
            narrate(
                f"fuzz: replayed {result.scenario.digest()} "
                f"({result.scenario.kind}) -> "
                f"{'ok' if result.ok else 'FAIL'}"
            )
            if args.json:
                emit_envelope(
                    "fuzz",
                    {"replay": args.replay, "digest": result.scenario.digest()},
                    result.to_dict(),
                )
            else:
                for failure in result.failures:
                    print(f"  {failure}")
            return 0 if result.ok else 1
        config = FuzzConfig(
            seed=args.seed,
            count=args.count,
            kinds=args.kinds,
            shrink_failures=not args.no_shrink,
            save_failures=args.save_failures,
        )
        report = run_fuzz(config, narrate=narrate)
    except (ReproError, OSError, ValueError) as error:
        print(f"fuzz: error: {error}", file=sys.stderr)
        return 2
    results = report.to_dict()
    if args.json:
        emit_envelope(
            "fuzz",
            {
                "seed": args.seed,
                "count": args.count,
                "kinds": sorted(config.generator().kinds),
                "shrink": not args.no_shrink,
            },
            results,
        )
    else:
        print(
            f"fuzz: {results['scenarios']} scenarios (seed {args.seed}): "
            f"{results['passed']} passed, {results['failed']} failed "
            f"{results['by_kind']}"
        )
        for failure in results["failures"]:
            print(f"  [{failure['index']}] {failure['kind']} "
                  f"{failure['digest']}: {failure['failures']}")
        for path in report.saved_paths:
            print(f"  reproducer: {path}")
    return 0 if report.ok else 1


def _trace_command(args: argparse.Namespace) -> int:
    from repro.telemetry import install_tracer, uninstall_tracer

    output = args.output or f"trace-{args.experiment}.json"
    tracer = install_tracer()
    try:
        # Serial on purpose: parallel_map workers are separate processes
        # whose events would never reach this tracer.
        with contextlib.redirect_stdout(sys.stderr):
            ok, _result = _run_one(args.experiment, quick=args.quick)
        if not ok:
            return 1
        path = tracer.write(output)
    finally:
        uninstall_tracer()
    categories = sorted(tracer.span_categories())
    if args.json:
        emit_envelope(
            args.experiment,
            {"quick": args.quick, "output": str(path)},
            {
                "trace_file": str(path),
                "events": tracer.event_count,
                "span_categories": categories,
            },
        )
    else:
        print(
            f"trace: wrote {path} ({tracer.event_count} events; "
            f"span categories: {', '.join(categories) or 'none'})"
        )
        print("trace: load it in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _list_command(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        registry = {
            key: {"module": module, "description": description}
            for key, (module, description) in EXPERIMENTS.items()
        }
        print(json.dumps(registry, indent=2))
        return 0
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_module, description) in EXPERIMENTS.items():
        print(f"  {key.ljust(width)}  {description}")
    print("\nrun with: python -m repro run <experiment|all>")
    return 0


def _run_command(args: argparse.Namespace) -> int:
    from repro.experiments.cache import install_cache, uninstall_cache

    cache = None
    if not args.no_cache:
        cache = install_cache(args.cache_dir)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        as_json = bool(args.json)
        redirect = (
            contextlib.redirect_stdout(sys.stderr)
            if as_json
            else contextlib.nullcontext()
        )
        params = {"jobs": args.jobs}
        if args.experiment == "all":
            results, failed = {}, []
            with redirect:
                for key in EXPERIMENTS:
                    ok, result = _run_one(key, jobs=args.jobs)
                    if ok:
                        results[key] = result
                    else:
                        failed.append(key)
            if as_json:
                emit_envelope(
                    "all", params, {"tables": results, "failed": failed}
                )
            if failed:
                print(
                    f"FAILED experiments: {', '.join(failed)}",
                    file=sys.stderr if as_json else sys.stdout,
                )
                return 1
            return 0
        with redirect:
            ok, result = _run_one(args.experiment, jobs=args.jobs)
        if not ok:
            return 1
        if as_json:
            emit_envelope(args.experiment, params, result)
        return 0
    finally:
        if cache is not None:
            print(cache.render(), file=sys.stderr)
            uninstall_cache()
        if profiler is not None:
            import pstats

            profiler.disable()
            # Under --json stdout carries the envelope and nothing else.
            stream = sys.stderr if args.json else sys.stdout
            stats = pstats.Stats(profiler, stream=stream)
            stats.sort_stats("cumulative").print_stats(25)


def _build_parser() -> argparse.ArgumentParser:
    """The command table: one subparser per command, each bound to its
    handler with ``set_defaults`` (no command at all means ``list``).

    Every flag that several subcommands share is defined once, on a
    parent parser, and inherited via ``parents=[...]``.
    """
    sharding, placement, queue, as_json = (
        argparse.ArgumentParser(add_help=False) for _ in range(4)
    )
    sharding.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="shard fleet nodes across N worker processes (byte-identical results)",
    )
    sharding.add_argument(
        "--lookahead",
        type=int,
        default=0,
        metavar="K",
        help="let shard workers speculate K epochs ahead of the coordinator "
        "(0 = no speculation; byte-identical results at any depth)",
    )
    sharding.add_argument(
        "--opstream-stats",
        metavar="FILE",
        default=None,
        help="write the sharded op-stream/speculation ledger as JSON",
    )
    placement.add_argument(
        "--policy",
        default="best-fit",
        choices=["first-fit", "best-fit", "affinity"],
        help="placement policy",
    )
    queue.add_argument("--queue", type=int, default=32, help="admission queue limit")
    queue.add_argument("--retries", type=int, default=3, help="max placement retries")
    as_json.add_argument(
        "--json",
        action="store_true",
        help="print the result as a machine-readable JSON envelope on stdout",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the OPTIMUS paper's tables and figures.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.set_defaults(handler=_list_command)
    sub = parser.add_subparsers(dest="command")
    lister = sub.add_parser(
        "list", help="list available experiments", parents=[as_json]
    )
    lister.set_defaults(handler=_list_command)
    runner = sub.add_parser(
        "run", help="run one experiment (or 'all')", parents=[as_json]
    )
    runner.set_defaults(handler=_run_command)
    runner.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    runner.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan independent sweep cells across N worker processes",
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top 25 cumulative entries",
    )
    runner.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"),
        help="content-addressed result cache directory "
        "(default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (always recompute)",
    )

    tracer_cmd = sub.add_parser(
        "trace",
        help="run one experiment under the telemetry tracer",
        parents=[as_json],
    )
    tracer_cmd.set_defaults(handler=_trace_command)
    tracer_cmd.add_argument("experiment", choices=list(EXPERIMENTS))
    tracer_cmd.add_argument(
        "--quick",
        action="store_true",
        help="use the experiment's quick() grid when it has one",
    )
    tracer_cmd.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="trace file path (default: trace-<experiment>.json)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="serve deterministic tenant traffic on a multi-FPGA fleet",
        parents=[placement, queue, sharding, as_json],
    )
    fleet.set_defaults(handler=_fleet_command)
    fleet.add_argument("--nodes", type=int, default=4, help="fleet size")
    fleet.add_argument("--load", type=float, default=0.9, help="offered load")
    fleet.add_argument("--seed", type=int, default=1, help="traffic seed")
    fleet.add_argument("--requests", type=int, default=200, help="request count")
    fleet.add_argument(
        "--max-oversub", type=int, default=4, help="tenants per physical slot"
    )
    fleet.add_argument(
        "--trace", action="store_true", help="print the full placement trace"
    )

    serve = sub.add_parser(
        "serve",
        help="replay a session trace through the SLO-aware gateway",
        parents=[placement, queue, sharding, as_json],
    )
    serve.set_defaults(handler=_serve_command)
    serve.add_argument(
        "--trace",
        dest="trace_file",
        metavar="FILE",
        default=None,
        help="replay a .json/.csv arrival trace instead of synthesizing one",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=None,
        metavar="N",
        help="synthetic trace size (default: 2000, or 800 with --quick)",
    )
    serve.add_argument("--seed", type=int, default=1, help="synthetic trace seed")
    serve.add_argument("--load", type=float, default=1.5, help="offered load")
    serve.add_argument(
        "--followup",
        type=float,
        default=0.3,
        metavar="P",
        help="closed-loop probability a tenant returns after a session",
    )
    serve.add_argument(
        "--diurnal",
        type=float,
        default=0.0,
        metavar="A",
        help="diurnal rate-modulation amplitude in [0, 1)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=0.0,
        metavar="P",
        help="per-arrival probability of starting a burst episode",
    )
    serve.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="fleet size (default: 3, or 2 with --quick)",
    )
    serve.add_argument(
        "--admission",
        default="slo-budget",
        choices=["queue-depth", "slo-budget"],
        help="admission policy (queue-depth = legacy bounded queue only)",
    )
    serve.add_argument(
        "--quick", action="store_true", help="small fleet + short trace preset"
    )
    serve.add_argument(
        "--save-trace",
        metavar="FILE",
        default=None,
        help="write the (synthesized) trace as JSON for later replay",
    )

    from repro.experiments.harness import STACK_MODES

    capacity = sub.add_parser(
        "capacity",
        help="fleet capacity planning (analytic fast-forward or DES)",
        parents=[as_json],
    )
    capacity.set_defaults(handler=_capacity_command)
    capacity.add_argument(
        "--mode",
        default="analytic",
        # Single-sourced from the stack registry: a new stack mode shows
        # up here (and in error messages) without touching the CLI.
        choices=list(STACK_MODES),
        help="backend: analytic = calibrated planner, optimus = fleet DES",
    )
    capacity.add_argument(
        "--tenants", type=int, default=100_000, help="tenant request count"
    )
    capacity.add_argument("--nodes", type=int, default=8, help="fleet size")
    capacity.add_argument("--load", type=float, default=1.2, help="offered load")
    capacity.add_argument("--seed", type=int, default=7, help="traffic seed")
    capacity.add_argument(
        "--mean-session-ms",
        type=int,
        default=20,
        metavar="MS",
        help="mean tenant session length in milliseconds",
    )
    capacity.add_argument(
        "--horizon-s",
        type=float,
        default=0.0,
        metavar="S",
        help="simulated-time horizon in seconds (0 = whole trace)",
    )
    capacity.add_argument(
        "--bootstrap",
        type=int,
        default=200,
        metavar="B",
        help="bootstrap resamples for the 95%% confidence intervals",
    )
    capacity.add_argument(
        "--no-goodput",
        action="store_true",
        help="skip calibrated per-type goodput (avoids calibration runs)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="inject a deterministic fault plan and watch recovery",
        parents=[placement, sharding, as_json],
    )
    chaos.set_defaults(handler=_chaos_command)
    chaos.add_argument(
        "experiment",
        choices=["fleet", "single"],
        help="fleet = serving loop under faults; single = one hypervisor",
    )
    from repro.faults.plan import preset_names

    chaos.add_argument(
        "--plan",
        default="single-node-crash",
        metavar="PRESET|FILE",
        # Single-sourced from the fault-plan registry, like --mode above:
        # registering a preset adds it here and to the fuzzer's draws.
        help="fault-plan preset name or JSON plan file "
        f"(presets: {', '.join(preset_names())})",
    )
    chaos.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    chaos.add_argument("--nodes", type=int, default=3, help="fleet size")
    chaos.add_argument(
        "--requests", type=int, default=80, help="fleet request count"
    )
    chaos.add_argument("--load", type=float, default=0.85, help="offered load")
    chaos.add_argument(
        "--traffic-seed", type=int, default=1, help="tenant traffic seed"
    )
    chaos.add_argument(
        "--window-ms",
        type=int,
        default=20,
        metavar="MS",
        help="single-platform run window in milliseconds",
    )
    chaos.add_argument(
        "--autoscale",
        type=int,
        default=0,
        metavar="N",
        help="install the elastic autoscaler with the last N fleet nodes "
        "parked as standby capacity (proactive evacuation of DEGRADED nodes)",
    )
    chaos.add_argument(
        "--drain-node",
        default=None,
        metavar="NAME",
        help="schedule a typed drain (cordon + live-migrate residents) of NAME",
    )
    chaos.add_argument(
        "--drain-at-ms",
        type=int,
        default=5,
        metavar="MS",
        help="simulated time of the scheduled --drain-node, in milliseconds",
    )
    from repro.scenario import kind_names

    fuzz = sub.add_parser(
        "fuzz",
        help="constrained-random differential fuzzing of the whole stack",
        parents=[as_json],
    )
    fuzz.set_defaults(handler=_fuzz_command)
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (scenario i is a "
        "pure function of (seed, i))"
    )
    fuzz.add_argument(
        "--count", type=int, default=5, metavar="N",
        help="number of scenarios to draw and run"
    )
    fuzz.add_argument(
        "--kinds",
        default=None,
        metavar="K1,K2",
        help="comma-separated scenario kinds to draw from "
        f"(default: all; kinds: {', '.join(kind_names())})",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures as drawn, without delta-debugging them down "
        "to minimal reproducers",
    )
    fuzz.add_argument(
        "--save-failures",
        metavar="DIR",
        default=None,
        help="write each (shrunk) failing scenario as a canonical-JSON "
        "reproducer file under DIR",
    )
    fuzz.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="re-run one saved reproducer through the oracle instead of "
        "fuzzing",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:  # exit code 2 for every command, see EXIT_CODES
        print(f"{args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
