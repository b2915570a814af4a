"""Command-line entry point: the paper's experiments and the fleet surfaces.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro run fig4             # one experiment
    python -m repro run all              # the whole evaluation section
    python -m repro run fig6 --jobs 8    # fan sweep cells across processes
    python -m repro run fig5 --profile   # print a cProfile summary after
    python -m repro run fig5 --json      # machine-readable result envelope
    python -m repro run fig5 --quick --trace t.json  # Perfetto-loadable capture
    python -m repro fleet --nodes 4 --load 0.9 --seed 1   # fleet serving
    python -m repro fleet --nodes 2 --load 3.0 --placements
    python -m repro chaos fleet --plan single-node-crash  # fault injection
    python -m repro chaos single --plan rogue-guest --json
    python -m repro serve --sessions 2000 --load 2.0      # serving gateway
    python -m repro serve --arrivals sessions.json --shards 2 --json
    python -m repro capacity --tenants 1000000 --load 6.0 # analytic planner
    python -m repro capacity --mode optimus --tenants 5000 --json
    python -m repro fuzz --seed 7 --count 20              # differential fuzzing
    python -m repro fuzz --replay repro-seed7-idx3-abc.json

Each command is declared once, with :func:`command`: its flags and a
``run`` that prints the human report and returns ``(params, results)``.
Every command takes ``--json``: the report then goes to stderr and stdout
carries one envelope, ``{"experiment": ..., "params": ..., "results":
...}``, and nothing else.  ``run`` exits non-zero if any experiment raises
(and keeps going through the rest of ``all``, reporting every failure at
the end).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from collections import ChainMap
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.analytic import CAPACITY_MODES
from repro.envelope import emit_envelope, to_jsonable
from repro.errors import ConfigurationError, ReproError
from repro.experiments.harness import ResultTable
from repro.faults.plan import preset_names
from repro.scenario import kind_names

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

IF_SET = "if set"


class Flag:
    """One argument of a command: ``add_argument``'s arguments, plus how
    its value reaches the envelope's ``params``: always (the default),
    never (``param=False``: output paths, and execution details such as
    ``--shards`` that never change results), or only when set
    (``param=IF_SET``, so envelopes from before the flag keep their bytes).
    """

    def __init__(self, *names: str, param=True, **options) -> None:
        self.names, self.param, self.options = names, param, options
        self.dest = options.get("dest", names[0].lstrip("-").replace("-", "_"))


@dataclass(frozen=True)
class Command:
    help: str
    flags: Tuple[Flag, ...]
    run: Callable[[argparse.Namespace, dict], Tuple[dict, object]]
    ok: Callable[[argparse.Namespace, object], bool]

    def params(self, args: argparse.Namespace) -> Dict[str, object]:
        return {
            flag.dest: getattr(args, flag.dest)
            for flag in self.flags
            if flag.param is True or (flag.param == IF_SET and getattr(args, flag.dest))
        }


COMMANDS: Dict[str, Command] = {}


def command(name: str, help: str, *flags: Flag, ok=lambda args, results: True):
    """Declare the decorated ``run(args, params)`` as command ``name``.

    ``params`` arrives filled from ``flags``; ``run`` completes it and
    returns ``(params, results)``.  ``ok(args, results)`` is false when
    the command ran but failed (exit 1).
    """

    def declare(run):
        COMMANDS[name] = Command(help, flags, run, ok)
        return run

    return declare


class ExperimentFailed(Exception):
    """``run <key>`` raised; its traceback is already on stderr (exit 1)."""


@contextlib.contextmanager
def _writing(path):
    """Report an unwritable output file as a usage error (exit 2)."""
    try:
        yield
    except OSError as error:
        raise ConfigurationError(
            f"cannot write {path}: {error.strerror or error}"
        ) from None


PLACEMENT = (
    Flag(
        "--policy",
        default="best-fit",
        choices=["first-fit", "best-fit", "affinity"],
        help="placement policy",
    ),
)
QUEUE = (
    Flag("--queue", type=int, default=32, help="admission queue limit"),
    Flag("--retries", type=int, default=3, help="max placement retries"),
)
SHARDING = (
    Flag(
        "--shards",
        param=False,
        type=int,
        default=1,
        metavar="N",
        help="shard fleet nodes across N worker processes (byte-identical results)",
    ),
    Flag(
        "--lookahead",
        param=False,
        type=int,
        default=0,
        metavar="K",
        help="let shard workers speculate K epochs ahead of the coordinator "
        "(0 = no speculation; byte-identical results at any depth)",
    ),
    Flag(
        "--opstream-stats",
        param=False,
        metavar="FILE",
        default=None,
        help="write the sharded op-stream/speculation ledger as JSON",
    ),
)


@contextlib.contextmanager
def _serving(args: argparse.Namespace, nodes: int, *, admission_policy=None, **fleet):
    """The fleet service behind ``fleet``, ``serve`` and ``chaos fleet``.

    Admission limits come from ``--queue``/``--retries`` where the command
    has them.  After the body, ``--opstream-stats`` gets the op-stream
    ledger: diagnostic output, never part of an envelope (a serial run
    writes an empty object, so the file always exists).
    """
    from repro.fleet import AdmissionConfig, FleetService, make_policy, open_fleet

    admission = None
    if "queue" in args:
        admission = AdmissionConfig(queue_limit=args.queue, max_retries=args.retries)
    with open_fleet(
        nodes, shards=args.shards, lookahead=args.lookahead, **fleet
    ) as cluster:
        yield FleetService(
            cluster,
            make_policy(args.policy),
            admission=admission,
            admission_policy=admission_policy,
        )
        if args.opstream_stats:
            with _writing(args.opstream_stats), open(
                args.opstream_stats, "w", encoding="utf-8"
            ) as handle:
                json.dump(cluster.opstream_stats(), handle, indent=2, sort_keys=True)
                handle.write("\n")


@command("list", "list available experiments")
def _list(args: argparse.Namespace, params: dict):
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_module, description) in EXPERIMENTS.items():
        print(f"  {key.ljust(width)}  {description}")
    print("\nrun with: python -m repro run <experiment|all>")
    return params, {
        key: {"module": module, "description": description}
        for key, (module, description) in EXPERIMENTS.items()
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


@command(
    "run",
    "run one experiment (or 'all')",
    # A live view, so experiments registered after import are choices too.
    Flag("experiment", param=False, choices=ChainMap({"all": None}, EXPERIMENTS)),
    Flag(
        "--quick",
        param=IF_SET,
        action="store_true",
        help="run the QUICK grid (seconds, not minutes) and check its quick claims",
    ),
    Flag(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan independent sweep cells across N worker processes",
    ),
    Flag(
        "--trace",
        param=False,
        metavar="FILE",
        help="write a Perfetto-loadable trace of the run to FILE "
        "(serial, and never served from the result cache)",
    ),
    Flag(
        "--profile",
        param=False,
        action="store_true",
        help="run under cProfile and print the top 25 cumulative entries",
    ),
    Flag(
        "--cache-dir",
        param=False,
        metavar="DIR",
        help="content-addressed result cache directory "
        "(default: $REPRO_CACHE_DIR or .repro-cache)",
    ),
    Flag(
        "--no-cache",
        param=False,
        action="store_true",
        help="disable the result cache (always recompute)",
    ),
    ok=lambda args, results: args.experiment != "all" or not results["failed"],
)
def _run(args: argparse.Namespace, params: dict):
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    if args.trace and args.jobs > 1:
        # Worker processes' events would never reach this process's tracer.
        raise ConfigurationError("--trace runs serially; drop --jobs")
    keys = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    results = {}
    with contextlib.ExitStack() as cleanup:
        # A cache hit would skip the very events --trace exists to capture.
        if not (args.trace or args.no_cache):
            from repro.experiments.cache import install_cache, uninstall_cache

            cache = install_cache(
                args.cache_dir or os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
            )
            cleanup.callback(uninstall_cache)
            cleanup.callback(lambda: print(cache.render(), file=sys.stderr))
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            cleanup.callback(
                lambda: pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
            )
            cleanup.enter_context(profiler)
        if args.trace:
            from repro.telemetry import install_tracer, uninstall_tracer

            tracer = install_tracer()
            cleanup.callback(uninstall_tracer)
        for key in keys:
            ok, result = _run_one(key, args.jobs, quick=args.quick)
            if ok:
                results[key] = result
        failed = [key for key in keys if key not in results]
        if failed and args.experiment != "all":
            raise ExperimentFailed(args.experiment)
        if args.trace:
            with _writing(args.trace):
                tracer.write(args.trace)
            categories = ", ".join(sorted(tracer.span_categories())) or "none"
            print(f"trace: wrote {args.trace} ({tracer.event_count} events; "
                  f"span categories: {categories})")
            print("trace: load it in https://ui.perfetto.dev or chrome://tracing")
    if args.experiment != "all":
        return params, results[args.experiment]
    if failed:
        print(f"FAILED experiments: {', '.join(failed)}")
    return params, {"tables": results, "failed": failed}


@command(
    "fleet",
    "serve deterministic tenant traffic on a multi-FPGA fleet",
    *PLACEMENT,
    *QUEUE,
    *SHARDING,
    Flag("--nodes", type=int, default=4, help="fleet size"),
    Flag("--load", type=float, default=0.9, help="offered load"),
    Flag("--seed", type=int, default=1, help="traffic seed (default: %(default)s)"),
    Flag("--requests", type=int, default=200, help="request count"),
    Flag("--max-oversub", type=int, default=4, help="tenants per physical slot"),
    Flag(
        "--placements",
        param=False,
        action="store_true",
        help="print the full placement trace",
    ),
)
def _fleet(args: argparse.Namespace, params: dict):
    from repro.fleet import TrafficGenerator, TrafficProfile

    with _serving(args, args.nodes, max_oversub=args.max_oversub) as service:
        cluster = service.cluster
        generator = TrafficGenerator(
            TrafficProfile(load=args.load),
            fleet_slots=cluster.total_slots,
            seed=args.seed,
        )
        result = service.serve(generator.generate(args.requests))
        results = to_jsonable(result.summary())
        results["nodes"] = to_jsonable(cluster.simulated_report())
    print(
        f"fleet: {args.nodes} nodes ({cluster.total_slots} slots), "
        f"policy {args.policy}, load {args.load}, seed {args.seed}, "
        f"{args.requests} requests"
    )
    print(result.metrics.render())
    if args.placements:
        print("\nplacement trace:")
        for line in result.metrics.trace:
            print(f"  {line}")
    return params, results


@command(
    "serve",
    "replay a session trace through the SLO-aware gateway",
    *PLACEMENT,
    *QUEUE,
    *SHARDING,
    Flag(
        "--arrivals",
        param=False,
        metavar="FILE",
        help="replay a .json/.csv arrival trace instead of synthesizing one",
    ),
    Flag(
        "--sessions",
        type=int,
        metavar="N",
        help="synthetic trace size (default: 2000, or 800 with --quick)",
    ),
    Flag(
        "--seed",
        type=int,
        default=1,
        help="synthetic trace seed (default: %(default)s)",
    ),
    Flag("--load", type=float, default=1.5, help="offered load"),
    Flag(
        "--followup",
        type=float,
        default=0.3,
        metavar="P",
        help="closed-loop probability a tenant returns after a session",
    ),
    Flag(
        "--diurnal",
        type=float,
        default=0.0,
        metavar="A",
        help="diurnal rate-modulation amplitude in [0, 1)",
    ),
    Flag(
        "--burst",
        type=float,
        default=0.0,
        metavar="P",
        help="per-arrival probability of starting a burst episode",
    ),
    Flag("--nodes", type=int, help="fleet size (default: 3, or 2 with --quick)"),
    Flag(
        "--admission",
        default="slo-budget",
        choices=["queue-depth", "slo-budget"],
        help="admission policy (queue-depth = legacy bounded queue only)",
    ),
    Flag("--quick", action="store_true", help="small fleet + short trace preset"),
    Flag(
        "--save-arrivals",
        param=False,
        metavar="FILE",
        help="write the (synthesized) arrival trace as JSON for later replay",
    ),
)
def _serve(args: argparse.Namespace, params: dict):
    """Replay (or synthesize) an arrival trace through the serving gateway."""
    from repro.serve import (
        ArrivalTrace,
        Gateway,
        ServeProfile,
        SloBudgetPolicy,
        synthesize,
    )

    if args.sessions is None:
        params["sessions"] = 800 if args.quick else 2000
    if args.nodes is None:
        params["nodes"] = 2 if args.quick else 3
    policy = SloBudgetPolicy() if args.admission == "slo-budget" else None
    with _serving(args, params["nodes"], admission_policy=policy) as service:
        if args.arrivals:
            trace = ArrivalTrace.load(args.arrivals)
        else:
            trace = synthesize(
                ServeProfile(
                    load=args.load,
                    followup_prob=args.followup,
                    diurnal_amplitude=args.diurnal,
                    burst_prob=args.burst,
                ),
                sessions=params["sessions"],
                fleet_slots=service.cluster.total_slots,
                seed=args.seed,
            )
        if args.save_arrivals:
            with _writing(args.save_arrivals):
                path = trace.write_json(args.save_arrivals)
            print(f"serve: wrote arrivals {path}", file=sys.stderr)
        result = Gateway(service, trace).run()
    # The trace is identified by digest, not file path: synthesizing a
    # trace and replaying its saved copy are the same experiment.
    params["trace"] = result.trace_digest
    results = to_jsonable(result.to_dict())
    trace_info = results["trace"]
    print(
        f"serve: {trace_info['sessions']} sessions in {trace_info['chains']} "
        f"chains (trace {trace_info['name']}, digest {trace_info['digest']}), "
        f"{params['nodes']} nodes, admission {args.admission}"
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
    return params, results


@command(
    "capacity",
    "fleet capacity planning (analytic fast-forward or DES)",
    Flag(
        "--mode",
        default="analytic",
        choices=list(CAPACITY_MODES),
        help="backend: analytic = closed-form/fluid planner, optimus = fleet DES",
    ),
    Flag("--tenants", type=int, default=100_000, help="tenant request count"),
    Flag("--nodes", type=int, default=8, help="fleet size"),
    Flag("--load", type=float, default=1.2, help="offered load"),
    Flag("--seed", type=int, default=7, help="traffic seed (default: %(default)s)"),
    Flag(
        "--mean-session-ms",
        type=int,
        default=20,
        metavar="MS",
        help="mean tenant session length in milliseconds",
    ),
    Flag(
        "--horizon-s",
        type=float,
        default=0.0,
        metavar="S",
        help="simulated-time horizon in seconds (0 = whole trace)",
    ),
    Flag(
        "--bootstrap",
        type=int,
        default=200,
        metavar="B",
        help="bootstrap resamples for the 95%% confidence intervals",
    ),
    Flag(
        "--no-goodput",
        dest="goodput",
        action="store_false",
        help="skip calibrated per-type goodput (avoids calibration runs)",
    ),
)
def _capacity(args: argparse.Namespace, params: dict):
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
    results = run_capacity(args.mode, config, goodput=args.goodput)
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
    return params, results


@command(
    "chaos",
    "inject a deterministic fault plan and watch recovery",
    *PLACEMENT,
    *SHARDING,
    Flag(
        "mode",
        choices=["fleet", "single"],
        help="fleet = serving loop under faults; single = one hypervisor",
    ),
    Flag(
        "--plan",
        default="single-node-crash",
        metavar="PRESET|FILE",
        # Single-sourced from the fault-plan registry, like --mode above:
        # registering a preset adds it here and to the fuzzer's draws.
        help="fault-plan preset name or JSON plan file "
        f"(presets: {', '.join(preset_names())})",
    ),
    Flag("--seed", type=int, help="override the plan's seed (default: the plan's own)"),
    Flag("--nodes", type=int, default=3, help="fleet size"),
    Flag("--requests", type=int, default=80, help="fleet request count"),
    Flag("--load", type=float, default=0.85, help="offered load"),
    Flag("--traffic-seed", type=int, default=1, help="tenant traffic seed"),
    Flag(
        "--window-ms",
        type=int,
        default=20,
        metavar="MS",
        help="single-platform run window in milliseconds",
    ),
    Flag(
        "--autoscale",
        param=IF_SET,
        dest="autoscale_standby",
        type=int,
        default=0,
        metavar="N",
        help="install the elastic autoscaler with the last N fleet nodes "
        "parked as standby capacity (proactive evacuation of DEGRADED nodes)",
    ),
    Flag(
        "--drain-node",
        param=IF_SET,
        metavar="NAME",
        help="schedule a typed drain (cordon + live-migrate residents) of NAME",
    ),
    Flag(
        "--drain-at-ms",
        param=False,  # stamped together with --drain-node
        type=int,
        default=5,
        metavar="MS",
        help="simulated time of the scheduled --drain-node, in milliseconds",
    ),
)
def _chaos(args: argparse.Namespace, params: dict):
    """Replay a fault plan and report injected events vs recovery outcomes."""
    import dataclasses

    from repro.faults import resolve_plan, run_single_chaos
    from repro.sim.clock import ms

    plan = resolve_plan(args.plan)
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    params["seed"] = plan.seed
    if args.drain_node:
        params["drain_at_ms"] = args.drain_at_ms
    if args.mode == "fleet":
        from repro.fleet import AutoscaleConfig, TrafficGenerator, TrafficProfile

        standby = args.autoscale_standby
        if standby and standby >= args.nodes:
            raise ReproError(
                f"--autoscale {standby} must leave at least "
                f"one active node (fleet has {args.nodes})"
            )
        with _serving(args, args.nodes) as service:
            cluster = service.cluster
            generator = TrafficGenerator(
                TrafficProfile(load=args.load),
                fleet_slots=cluster.total_slots,
                seed=args.traffic_seed,
            )
            service.install_faults(plan)
            if standby:
                service.install_autoscaler(
                    AutoscaleConfig(
                        standby_nodes=tuple(
                            f"node{i}" for i in range(args.nodes - standby, args.nodes)
                        )
                    )
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
                results["autoscaler"] = to_jsonable(service.autoscaler.summary())
    else:  # single
        report = run_single_chaos(plan, window_ps=ms(args.window_ms))
        results = {
            "plan": to_jsonable(plan.to_dict()),
            "injected": to_jsonable(report["fault_log"]),
            "report": to_jsonable(report),
        }
    print(f"chaos[{args.mode}]: plan {plan.name} (seed {plan.seed}, "
          f"digest {plan.digest()})")
    for event in results["injected"]["events"]:
        details = event.get("details", {})
        extra = f" {details}" if details else ""
        print(f"  {event['at_ps']:>15} ps  {event['kind']:<18} "
              f"{event['target']:<10} -> {event['outcome']}{extra}")
    if args.mode == "fleet":
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
    return params, results


@command(
    "fuzz",
    "constrained-random differential fuzzing of the whole stack",
    Flag(
        "--seed",
        type=int,
        default=0,
        help="campaign seed (default: %(default)s; scenario i is a pure "
        "function of (seed, i))",
    ),
    Flag(
        "--count",
        type=int,
        default=5,
        metavar="N",
        help="number of scenarios to draw and run",
    ),
    Flag(
        "--kinds",
        metavar="K1,K2",
        help="comma-separated scenario kinds to draw from "
        f"(default: all; kinds: {', '.join(kind_names())})",
    ),
    Flag(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="report failures as drawn, without delta-debugging them down "
        "to minimal reproducers",
    ),
    Flag(
        "--save-failures",
        param=False,
        metavar="DIR",
        help="write each (shrunk) failing scenario as a canonical-JSON "
        "reproducer file under DIR",
    ),
    Flag(
        "--replay",
        param=False,
        metavar="FILE",
        help="re-run one saved reproducer through the oracle instead of "
        "fuzzing",
    ),
    ok=lambda args, results: results["ok"] if args.replay else not results["failed"],
)
def _fuzz(args: argparse.Namespace, params: dict):
    """Constrained-random differential fuzzing over the whole stack."""
    from repro.scenario import FuzzConfig, replay, run_fuzz

    def narrate(line: str) -> None:
        print(line, file=sys.stderr)

    if args.replay:
        result = replay(args.replay)
        digest = result.scenario.digest()
        narrate(
            f"fuzz: replayed {digest} ({result.scenario.kind}) -> "
            f"{'ok' if result.ok else 'FAIL'}"
        )
        for failure in result.failures:
            print(f"  {failure}")
        return {"replay": args.replay, "digest": digest}, result.to_dict()
    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        kinds=args.kinds,
        shrink_failures=args.shrink,
        save_failures=args.save_failures,
    )
    params["kinds"] = sorted(config.generator().kinds)
    report = run_fuzz(config, narrate=narrate)
    results = report.to_dict()
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
    return params, results


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per :data:`COMMANDS` entry, each with ``--json``
    (no command at all means ``list``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the OPTIMUS paper's tables and figures.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command="list", json=False)
    for name, declared in COMMANDS.items():
        subparser = sub.add_parser(name, help=declared.help)
        for flag in declared.flags:
            subparser.add_argument(*flag.names, **flag.options)
        subparser.add_argument(
            "--json",
            action="store_true",
            help="print the result as a machine-readable JSON envelope on "
            "stdout (the human report goes to stderr)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    declared = COMMANDS[args.command]
    redirect = contextlib.redirect_stdout(sys.stderr)
    try:
        # Under --json, stdout carries the envelope and nothing else.
        with redirect if args.json else contextlib.nullcontext():
            params, results = declared.run(args, declared.params(args))
    except ReproError as error:  # exit code 2 for every command, see EXIT_CODES
        print(f"{args.command}: error: {error}", file=sys.stderr)
        return 2
    except ExperimentFailed:
        return 1
    if args.json:
        # ``run`` names its envelope after the experiment, the rest after
        # the command itself.
        emit_envelope(getattr(args, "experiment", args.command), params, results)
    return 0 if declared.ok(args, results) else 1


if __name__ == "__main__":
    sys.exit(main())
