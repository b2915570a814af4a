"""The seven benchmark workloads: set-up, the one timed call, and verification.

Every workload is a function ``(seed, sizes, span) -> Prepared`` (``span``
opens a named child span of the set-up phase).  Everything the
seed feeds (job seeds, traffic, arrival traces) is generated here, in
set-up; the program under test only ever sees the generated inputs.
``Prepared.timed`` is exactly one call of a public function of the repo;
``Prepared.finish`` turns its result into the work count, the simulated
time advanced, the canonical result (hashed into the digest) and the
simulated counters that must repeat exactly.

Only public surfaces are driven: ``make_stack``/``Stack.launch``/
``Stack.run_for``, ``Engine.run_until``, ``FleetService.serve``,
``ShardedFleetCluster.build``/``ShardedFleetService.serve``,
``Gateway.run``, ``platform.metrics.snapshot()``, the ``FastPath``
counters and ``opstream_stats()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: Windows and request counts per size.  ``full`` is what BENCHMARK.json
#: measures (about one host second per timed call, so a run fits several
#: repetitions of several inputs); ``smoke`` only proves the plumbing.
#: Working sets, load factors, fleet sizes and queue limits are the same
#: at both sizes: they set the IOTLB and admission regime.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "membench_hit": {"warmup_us": 30, "window_us": 100},
        "membench_thrash": {"warmup_us": 60, "window_us": 180},
        "linkedlist_chase": {"warmup_us": 2000, "window_us": 6000},
        "stream_burst": {"stream_mb": 8},
        "fleet_admission": {"requests": 2500},
        "fleet_sharded": {"requests": 2500},
        "gateway_sessions": {"sessions": 4000},
    },
    "smoke": {
        "membench_hit": {"warmup_us": 20, "window_us": 12},
        "membench_thrash": {"warmup_us": 30, "window_us": 25},
        "linkedlist_chase": {"warmup_us": 800, "window_us": 800},
        "stream_burst": {"stream_mb": 1},
        "fleet_admission": {"requests": 300},
        "fleet_sharded": {"requests": 300},
        "gateway_sessions": {"sessions": 500},
    },
}

#: Work unit per workload (what ``work_per_s`` counts).
WORK_UNITS = {
    "membench_hit": "lines",
    "membench_thrash": "lines",
    "linkedlist_chase": "hops",
    "stream_burst": "lines",
    "fleet_admission": "requests",
    "fleet_sharded": "requests",
    "gateway_sessions": "sessions",
}


@dataclass
class Outcome:
    """What one timed call produced, reduced to what the harness checks."""

    work: int
    sim_ps: int
    result: object  # canonical-JSON-able; hashed into the digest
    #: Simulated counters: pure functions of (params, seed), compared exactly.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Host-time readings the program itself takes (never compared exactly).
    host_times: Dict[str, float] = field(default_factory=dict)


@dataclass
class Prepared:
    timed: Callable[[], object]
    finish: Callable[[object], Outcome]
    close: Callable[[], None] = lambda: None


def digest_of(result: object) -> str:
    """SHA-256 of the repo's canonical JSON form of a result."""
    from repro.envelope import canonical_json

    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


# -- datapath workloads ----------------------------------------------------------


def _platform_counters(platform) -> Dict[str, float]:
    """Simulated counters from the platform's public metric registry."""
    snapshot = platform.metrics.snapshot()
    iotlb = snapshot["iommu.iotlb"]
    afus = [name[: -len(".read")] for name in snapshot if name.endswith(".read")
            and name.startswith("afu")]
    latencies = [snapshot[f"{afu}.latency"] for afu in afus]
    latencies = [entry for entry in latencies if entry]
    fastpaths = [socket.dma.fastpath for socket in platform.sockets]
    fastpaths = [fp for fp in fastpaths if fp is not None]
    return {
        "interconnect.link_packets": sum(
            entry["packets"] for name, entry in snapshot.items() if ".bw." in name
        ),
        "mem.iotlb_hits": iotlb["hits"],
        "mem.iotlb_misses": iotlb["misses"],
        "mem.iotlb_miss_ratio": iotlb["miss_ratio"],
        "mem.iotlb_evictions": iotlb["evictions"],
        "accel.sim_gbps": sum(
            snapshot[f"{afu}.{way}"]["gb_per_s"] for afu in afus for way in ("read", "write")
        ),
        "accel.sim_latency_p50_ns": max((e["p50_ns"] for e in latencies), default=0.0),
        "accel.sim_latency_p99_ns": max((e["p99_ns"] for e in latencies), default=0.0),
        "platform.bursts_committed": sum(fp.committed_bursts for fp in fastpaths),
        "platform.bursts_declined": sum(fp.declined_bursts for fp in fastpaths),
        "platform.lines_committed": sum(fp.committed_lines for fp in fastpaths),
    }


def _optimus_window(launch_jobs, sizes, span) -> Prepared:
    """An OPTIMUS stack measured over a simulated window after warm-up."""
    from repro.experiments.harness import make_stack
    from repro.mem import PAGE_SIZE_2M
    from repro.platform import PlatformParams
    from repro.sim.clock import us

    stack = make_stack("optimus", PlatformParams(page_size=PAGE_SIZE_2M), n_accelerators=8)
    jobs = launch_jobs(stack)
    with span("warmup"):
        stack.run_for(us(sizes["warmup_us"]))
    # Statistics start after the modelled IOTLB has filled.
    stack.platform.metrics.reset()
    engine = stack.platform.engine
    start_ps = engine.now
    base = [job.progress() for job in jobs]
    window_ps = us(sizes["window_us"])

    def finish(_result) -> Outcome:
        progress = [job.progress() - before for job, before in zip(jobs, base)]
        return Outcome(
            work=sum(progress),
            sim_ps=engine.now - start_ps,
            result={
                "now_ps": engine.now,
                "progress": progress,
                "metrics": stack.platform.metrics.snapshot(),
            },
            counters=_platform_counters(stack.platform),
        )

    return Prepared(timed=lambda: stack.run_for(window_ps), finish=finish)


def membench_hit(seed: int, sizes: Dict[str, int], span) -> Prepared:
    """One MemBench job, random reads over 64 MB: inside the IOTLB's reach."""
    from repro.accel.membench import MODE_READ
    from repro.mem import MB

    def launch(stack):
        return [
            stack.launch(
                "MB",
                physical_index=0,
                working_set=64 * MB,
                job_kwargs={"functional": False, "seed": seed, "mode": MODE_READ},
            )
        ]

    return _optimus_window(launch, sizes, span)


def membench_thrash(seed: int, sizes: Dict[str, int], span) -> Prepared:
    """Four MemBench jobs, random writes over 4 x 1 GB: 4x the IOTLB's reach."""
    from repro.accel.membench import MODE_WRITE
    from repro.mem import GB

    def launch(stack):
        return [
            stack.launch(
                "MB",
                physical_index=index,
                working_set=1 * GB,
                job_kwargs={
                    "functional": False,
                    "seed": seed + 104729 * index,
                    "mode": MODE_WRITE,
                },
            )
            for index in range(4)
        ]

    return _optimus_window(launch, sizes, span)


def linkedlist_chase(seed: int, sizes: Dict[str, int], span) -> Prepared:
    """Four LinkedList jobs pointer-chasing over 4 x 1 GB, never finishing."""
    from repro.mem import GB

    def launch(stack):
        return [
            stack.launch(
                "LL",
                physical_index=index,
                working_set=1 * GB,
                job_kwargs={"functional": False, "seed": seed + 31 * index},
            )
            for index in range(4)
        ]

    return _optimus_window(launch, sizes, span)


def _make_reader():
    from repro.accel.base import AcceleratorProfile
    from repro.accel.streaming import StreamingJob
    from repro.fpga.resources import ResourceFootprint

    class ComputeBoundReader(StreamingJob):
        # Slow enough that the DMA pipeline drains between tiles: the
        # regime where bursts commit on the analytic fast path.  The same
        # reader as benchmarks/perf/bench_simulator.py.
        profile = AcceleratorProfile(
            name="RD0",
            description="compute-bound streaming reader (benchmark)",
            loc_verilog=0,
            freq_mhz=400.0,
            footprint=ResourceFootprint(alm_pct=1.0, bram_pct=1.0),
            max_outstanding=64,
        )
        bytes_per_cycle = 4.0
        output_ratio = 0.0
        tile_lines = 64
        prefetch_tiles = 2

    return ComputeBoundReader(functional=False)


def stream_burst(seed: int, sizes: Dict[str, int], span) -> Prepared:
    """Pass-through stack, compute-bound sequential reader: the fast path's case."""
    from repro.accel.streaming import REG_LEN, REG_SRC
    from repro.guest import NativeAccelerator
    from repro.hv import PassthroughHypervisor
    from repro.mem import MB, PAGE_SIZE_2M
    from repro.platform import PlatformMode, PlatformParams, build_platform
    from repro.sim.clock import ms

    total_bytes = sizes["stream_mb"] * MB
    params = PlatformParams(speculative_region_opt=False)
    platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
    hypervisor = PassthroughHypervisor(platform)
    handle = NativeAccelerator(hypervisor, window_bytes=64 * MB)
    # The stream itself is sequential; the seed only decides where in the
    # window the source buffer lands (which pages and IOTLB sets it uses).
    padding = (seed % 16) * PAGE_SIZE_2M
    if padding:
        handle.alloc_buffer(padding)
    src = handle.alloc_buffer(total_bytes)
    job = _make_reader()
    job.regs.update({REG_SRC: src, REG_LEN: total_bytes})
    done = hypervisor.start_job(job)
    engine = platform.engine
    start_ps = engine.now

    def finish(_result) -> Outcome:
        lines = job.progress_units() // params.cache_line
        return Outcome(
            work=lines,
            sim_ps=engine.now - start_ps,
            result={
                "now_ps": engine.now,
                "progress": [lines],
                "metrics": platform.metrics.snapshot(),
            },
            counters=_platform_counters(platform),
        )

    return Prepared(
        timed=lambda: engine.run_until(done, limit_ps=ms(500)), finish=finish
    )


# -- fleet and serving workloads -------------------------------------------------


def _fleet_counters(summary: Dict[str, object]) -> Dict[str, float]:
    return {
        "fleet.placements": summary["placements"],
        "fleet.rejections": summary["rejections"],
        "fleet.queued": summary["queued"],
        "fleet.retries": summary["retries"],
    }


#: Traffic seeds the fleet workloads replay, chosen by ``seed % 8``.  With
#: load 1.5 on two-fold oversubscription AES runs at 90% of its capacity,
#: so how often admission retries depends on the trace drawn: 234 to 1017
#: retries per 2500 requests over seeds 0..63 (and no steadier over 8000),
#: and a retry costs the host about four arrivals.  Host time compared
#: across arbitrary seeds would compare traces, not code.  These are the
#: eight seeds of 0..63 whose traces retry closest to the median (642.5):
#: 622 to 656 retries, 18 to 58 rejections.
FLEET_TRAFFIC_SEEDS = (6, 44, 16, 27, 5, 30, 10, 20)


def _fleet_requests(seed: int, count: int, fleet_slots: int):
    from repro.fleet import TrafficGenerator, TrafficProfile

    generator = TrafficGenerator(
        TrafficProfile(load=1.5),
        fleet_slots=fleet_slots,
        seed=FLEET_TRAFFIC_SEEDS[seed % len(FLEET_TRAFFIC_SEEDS)],
    )
    return generator.generate(count)


def fleet_admission(seed: int, sizes: Dict[str, int], span) -> Prepared:
    """The ``fleet`` command's serial DES between the spatial knee and the
    oversubscription ceiling: queueing, retries, rejection, temporal placement."""
    from repro.fleet import AdmissionConfig, FleetCluster, FleetService, make_policy

    cluster = FleetCluster.build(8, max_oversub=2)
    service = FleetService(
        cluster, make_policy("best-fit"), admission=AdmissionConfig(queue_limit=16)
    )
    requests = _fleet_requests(seed, sizes["requests"], cluster.total_slots)

    def finish(result) -> Outcome:
        summary = result.summary()
        return Outcome(
            work=len(requests),
            sim_ps=summary["span_ps"],
            result=summary,
            counters=_fleet_counters(summary),
        )

    return Prepared(timed=lambda: service.serve(requests), finish=finish)


def fleet_sharded(seed: int, sizes: Dict[str, int], span) -> Prepared:
    """The identical trace and admission logic through two forked shard workers."""
    from repro.fleet import AdmissionConfig, make_policy
    from repro.parallel import ShardedFleetCluster, ShardedFleetService

    with span("fork"):
        cluster = ShardedFleetCluster.build(8, shards=2, max_oversub=2, lookahead=8)
    try:
        service = ShardedFleetService(
            cluster, make_policy("best-fit"), admission=AdmissionConfig(queue_limit=16)
        )
        requests = _fleet_requests(seed, sizes["requests"], cluster.total_slots)
    except BaseException:
        cluster.close()
        raise

    def finish(result) -> Outcome:
        summary = result.summary()
        stats = cluster.opstream_stats()
        counters = _fleet_counters(summary)
        for key in (
            "messages", "frames", "frame_bytes", "stall_waits",
            "grants", "rollbacks", "gathers",
        ):
            counters[f"parallel.{key}"] = stats[key]
        return Outcome(
            work=len(requests),
            sim_ps=summary["span_ps"],
            result=summary,
            counters=counters,
            host_times={"parallel.barrier_stall_s": stats["barrier_stall_s"]},
        )

    return Prepared(
        timed=lambda: service.serve(requests), finish=finish, close=cluster.close
    )


def gateway_sessions(seed: int, sizes: Dict[str, int], span) -> Prepared:
    """The ``serve`` command: asyncio gateway, SLO shedding on every arrival."""
    from repro.fleet import FleetCluster, make_policy
    from repro.serve import (
        Gateway,
        GatewayFleetService,
        ServeProfile,
        SloBudgetPolicy,
        synthesize,
    )

    cluster = FleetCluster.build(4)
    trace = synthesize(
        ServeProfile(load=1.5, followup_prob=0.3),
        sessions=sizes["sessions"],
        fleet_slots=cluster.total_slots,
        seed=seed,
    )
    service = GatewayFleetService(
        cluster, make_policy("best-fit"), admission_policy=SloBudgetPolicy()
    )
    gateway = Gateway(service, trace)

    def finish(result) -> Outcome:
        outcomes = result.session_outcomes()
        summary = result.serve.summary()
        counters = _fleet_counters(summary)
        counters.update(
            {
                "serve.completed": outcomes.get("completed", 0)
                + outcomes.get("replaced_completed", 0),
                "serve.shed": outcomes.get("rejected_slo_shed", 0),
                "serve.chains": result.chains,
            }
        )
        return Outcome(
            work=result.sessions,
            sim_ps=summary["span_ps"],
            result=result.to_dict(),
            counters=counters,
        )

    return Prepared(timed=gateway.run, finish=finish)


#: What the ``import`` phase loads, so set-up time is building, not importing.
IMPORTS = {
    "membench_hit": ("repro.experiments.harness",),
    "membench_thrash": ("repro.experiments.harness",),
    "linkedlist_chase": ("repro.experiments.harness",),
    "stream_burst": ("repro.guest", "repro.hv", "repro.platform"),
    "fleet_admission": ("repro.fleet",),
    "fleet_sharded": ("repro.fleet", "repro.parallel"),
    "gateway_sessions": ("repro.fleet", "repro.serve"),
}

WORKLOADS: Dict[str, Callable[..., Prepared]] = {
    "membench_hit": membench_hit,
    "membench_thrash": membench_thrash,
    "linkedlist_chase": linkedlist_chase,
    "stream_burst": stream_burst,
    "fleet_admission": fleet_admission,
    "fleet_sharded": fleet_sharded,
    "gateway_sessions": gateway_sessions,
}


def regime_failure(
    workload: str, counters: Dict[str, float], traced_layers: Optional[Dict[str, float]]
) -> Optional[str]:
    """Why a run left the regime its workload was chosen for, if it did."""
    get = counters.get
    if workload == "membench_hit" and get("mem.iotlb_misses", 0) != 0:
        return "the IOTLB missed inside its reach"
    if workload in ("membench_thrash", "linkedlist_chase") and get("mem.iotlb_miss_ratio", 0) < 0.5:
        return "IOTLB miss ratio below 0.5"
    if workload == "stream_burst":
        if get("platform.bursts_committed", 0) <= 0:
            return "no burst committed on the fast path"
        if traced_layers is not None and traced_layers["core.calls"] != 0:
            return "the multiplexer tree ran on the pass-through stack"
    if workload in ("fleet_admission", "fleet_sharded") and (
        get("fleet.retries", 0) <= 0 or get("fleet.rejections", 0) <= 0
    ):
        return "no retries or no rejections"
    if workload == "gateway_sessions" and get("serve.shed", 0) <= 0:
        return "no session shed"
    return None
