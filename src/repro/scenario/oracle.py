"""The differential oracle: run one scenario, two ways, and compare.

Each scenario kind maps to a pair of execution arms that the codebase
promises are *byte-identical*:

======== ============================== ==============================
kind     arm A                          arm B
======== ============================== ==============================
burst    fast-path burst governor       reference per-line packets
platform fast-path chaos stack          timing-equivalent reference
fleet    serial serving loop            sharded executor (2 workers)
serve    serial gateway                 sharded gateway (2 workers)
capacity analytic closed form (exact)   fleet DES (same config)
======== ============================== ==============================

The comparison is over compact canonical JSON of the observables
(:func:`repro.envelope.canonical_json`), so "identical" means identical
to the byte — the same bar the CI envelope jobs hold the CLIs to.
Property checks (:mod:`repro.scenario.properties`) run on top, catching
the failure mode differential testing cannot: both arms agreeing on a
wrong answer.  Capacity scenarios drawn in the fluid regime (load above
the oversubscription ceiling) get property checks only — there the
analytic engine is an approximation by design, so byte-equality against
the DES is not a promise to hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.envelope import canonical_json, to_jsonable
from repro.faults.plan import FaultPlan, resolve_plan
from repro.mem import MB
from repro.scenario import properties
from repro.scenario.space import Scenario
from repro.sim.clock import ms, us


@dataclass
class OracleResult:
    """The verdict on one scenario."""

    scenario: Scenario
    failures: List[str] = field(default_factory=list)
    #: Canonical-JSON digests (or payloads) per arm, for the envelope.
    observables: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario.to_dict(),
            "digest": self.scenario.digest(),
            "ok": self.ok,
            "failures": list(self.failures),
            "observables": to_jsonable(self.observables),
        }


def _plan_for(name: str) -> FaultPlan:
    if name == "none":
        return FaultPlan.of([], seed=0, name="none")
    return resolve_plan(name)


def _diff(failures: List[str], label: str, a: object, b: object) -> None:
    text_a, text_b = canonical_json(a), canonical_json(b)
    if text_a != text_b:
        # Point at the first diverging key so a human (or the shrinker
        # log) sees *where* without wading through two full payloads.
        detail = ""
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if canonical_json(a.get(key)) != canonical_json(b.get(key)):
                    detail = f" (first diverging key: {key!r})"
                    break
        failures.append(f"differential divergence in {label}{detail}")


# -- platform: fast path vs reference simulator ----------------------------------


def _platform_report(scenario: Scenario, fast_path: bool) -> Dict[str, object]:
    from repro.faults.single import SinglePlatformChaos
    from repro.platform import PlatformParams

    f = scenario.fields
    params = PlatformParams(
        fast_path=fast_path,
        page_size=int(f["page_size"]),
        conflict_mitigation=bool(f["conflict_mitigation"]),
        speculative_region_opt=bool(f["speculative_region_opt"]),
        time_slice_ps=us(int(f["time_slice_us"])),
    )
    working_set = int(f["working_set_mb"]) * MB
    chaos = SinglePlatformChaos(
        _plan_for(str(f["fault_plan"])),
        params=params,
        n_accelerators=2,
        working_set=working_set,
        victim="LL",
    )
    # The scenario's accelerator mix rides alongside the chaos victim:
    # extra tenants spread across both physical slots, so the mux tree,
    # IOTLB, and auditors see contention in every draw.
    for index, name in enumerate(f["accels"]):
        chaos.stack.launch(
            str(name),
            physical_index=(index + 1) % chaos.n_accelerators,
            working_set=working_set,
        )
    return chaos.run(window_ps=ms(int(f["window_ms"])))


def _run_platform(scenario: Scenario) -> OracleResult:
    result = OracleResult(scenario)
    fast = _platform_report(scenario, fast_path=True)
    reference = _platform_report(scenario, fast_path=False)
    _diff(result.failures, "fast vs reference chaos report", fast, reference)
    window_ps = ms(int(scenario.fields["window_ms"]))
    plan = _plan_for(str(scenario.fields["fault_plan"]))
    result.failures.extend(properties.check_platform(
        fast, plan, window_ps,
        time_slice_ps=us(int(scenario.fields["time_slice_us"])),
    ))
    result.observables = {"report": fast}
    return result


# -- burst: the fast-path governor vs reference per-line packets -----------------
#
# The analytic burst path only exists on the pass-through datapath (under
# OPTIMUS every burst splits through the multiplexer into reference
# packets — see builder.py), so this kind is where a broken fast-path
# governor actually diverges: commit a burst with wrong completion times
# and finish_ps / latency samples / meters drift off the reference run.


def _burst_job(scenario: Scenario):
    import hashlib

    from repro.accel.base import AcceleratorProfile
    from repro.accel.streaming import StreamingJob
    from repro.fpga.resources import ResourceFootprint

    f = scenario.fields

    class BurstReader(StreamingJob):
        """Pure streaming reader; demand set by the scenario's knobs."""

        profile = AcceleratorProfile(
            name="RD0",
            description="scenario-fuzz streaming reader",
            loc_verilog=0,
            freq_mhz=400.0,
            footprint=ResourceFootprint(alm_pct=1.0, bram_pct=1.0),
            max_outstanding=64,
        )
        output_ratio = 0.0

        def __init__(self) -> None:
            super().__init__(functional=True)
            self.bytes_per_cycle = float(f["bytes_per_cycle"])
            self.tile_lines = int(f["tile_lines"])
            self.prefetch_tiles = int(f["prefetch_tiles"])
            self.digest = hashlib.sha256()

        def transform(self, data: bytes, offset: int) -> bytes:
            self.digest.update(data)
            return data

    return BurstReader()


def _burst_arm(scenario: Scenario, fast_path: bool) -> Dict[str, object]:
    import numpy as np

    from repro.accel.streaming import REG_DST, REG_LEN, REG_SRC
    from repro.guest import NativeAccelerator
    from repro.hv import PassthroughHypervisor
    from repro.mem import MB as MB_
    from repro.platform import PlatformMode, PlatformParams, build_platform

    f = scenario.fields
    params = PlatformParams(
        fast_path=fast_path,
        page_size=int(f["page_size"]),
        speculative_region_opt=bool(f["speculative_region_opt"]),
    )
    platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
    hypervisor = PassthroughHypervisor(platform)
    handle = NativeAccelerator(hypervisor, window_bytes=32 * MB_)
    data = np.random.RandomState(int(f["pattern_seed"])).bytes(
        int(f["data_kb"]) * 1024
    )
    src = handle.alloc_buffer(len(data))
    handle.write_buffer(src, data)
    dst = handle.alloc_buffer(64 * 1024)
    job = _burst_job(scenario)
    job.regs.update({REG_SRC: src, REG_DST: dst, REG_LEN: len(data)})
    done = hypervisor.start_job(job)
    platform.engine.run_until(done, limit_ps=ms(50))

    dma = platform.sockets[0].dma
    stats = platform.iommu.iotlb.stats
    observables: Dict[str, object] = {
        "finish_ps": platform.engine.now,
        "done": job.done,
        "digest": job.digest.hexdigest(),
        "bytes_in": job.bytes_in,
        "latency_samples": sorted(dma.latency.samples_ps),
        "afu_read": [dma.read_meter.bytes_total, dma.read_meter.packets_total],
        "mem_read": [
            platform.memory.read_meter.bytes_total,
            platform.memory.read_meter.packets_total,
        ],
        "iotlb": [stats.hits, stats.misses, stats.evictions],
        "dram": [platform.dram.reads, platform.dram.writes],
        "links": [
            [
                link.meter_to_memory.bytes_total,
                link.meter_to_memory.packets_total,
                link.meter_from_memory.bytes_total,
                link.meter_from_memory.packets_total,
            ]
            for link in platform.links
        ],
        "faults": dict(platform.iommu.faults),
        "dropped": dma.dropped,
    }
    fastpath = dma.fastpath
    governor = {
        "attached": fastpath is not None,
        "committed_bursts": getattr(fastpath, "committed_bursts", 0),
        "committed_lines": getattr(fastpath, "committed_lines", 0),
        "declined_bursts": getattr(fastpath, "declined_bursts", 0),
    }
    return {"observables": observables, "governor": governor, "data": data}


def _run_burst(scenario: Scenario) -> OracleResult:
    import hashlib

    result = OracleResult(scenario)
    fast = _burst_arm(scenario, fast_path=True)
    reference = _burst_arm(scenario, fast_path=False)
    _diff(
        result.failures,
        "fast-path vs reference burst metrics",
        fast["observables"],
        reference["observables"],
    )
    result.failures.extend(properties.check_burst(
        fast["observables"],
        fast["governor"],
        expected_digest=hashlib.sha256(fast["data"]).hexdigest(),
        speculative_region_opt=bool(scenario.fields["speculative_region_opt"]),
    ))
    result.observables = {
        "metrics": fast["observables"],
        "governor": fast["governor"],
    }
    return result


# -- fleet: serial vs sharded serving loop ---------------------------------------


def _fleet_arm(
    scenario: Scenario, shards: int, failures: List[str]
) -> Dict[str, object]:
    from repro.fleet import (
        FleetObserver,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        make_policy,
        open_fleet,
    )

    f = scenario.fields
    nodes = int(f["nodes"])
    migrations: List[Tuple[str, Optional[str]]] = []

    class DrainRecorder(FleetObserver):
        # The only op a fleet scenario schedules is the drain below.
        def on_op(self, verb: str, report, now: int) -> None:
            migrations.extend(
                (outcome.tenant, outcome.checkpoint_digest)
                for outcome in report.migrated
            )

    with open_fleet(
        nodes, shards=shards, lookahead=int(f.get("lookahead", 0))
    ) as cluster:
        service = FleetService(
            cluster, make_policy(str(f["policy"])), observer=DrainRecorder()
        )
        if f["fault_plan"] != "none":
            service.install_faults(_plan_for(str(f["fault_plan"])))
        standby = int(f["autoscale_standby"])
        if standby:
            from repro.fleet import AutoscaleConfig

            names = tuple(f"node{i}" for i in range(nodes - standby, nodes))
            service.install_autoscaler(AutoscaleConfig(standby_nodes=names))
        if f["drain_node"] != "none":
            service.schedule_op(
                ms(int(f["drain_at_ms"])), "drain", node_name=str(f["drain_node"])
            )
        generator = TrafficGenerator(
            TrafficProfile(load=float(f["load"])),
            fleet_slots=cluster.total_slots,
            seed=int(f["traffic_seed"]),
        )
        result = service.serve(generator.generate(int(f["requests"])))
        failures.extend(properties.check_ledgers(cluster))
        observables: Dict[str, object] = {
            "summary": to_jsonable(result.summary()),
            "outcomes": result.outcome_counts(),
            "availability": result.availability(),
            "nodes": to_jsonable(cluster.simulated_report()),
            "migrations": [list(entry) for entry in migrations],
        }
        if service.autoscaler is not None:
            observables["autoscaler"] = to_jsonable(service.autoscaler.summary())
        return observables


def _run_fleet(scenario: Scenario) -> OracleResult:
    result = OracleResult(scenario)
    serial = _fleet_arm(scenario, 1, result.failures)
    sharded = _fleet_arm(scenario, 2, result.failures)
    _diff(result.failures, "serial vs sharded fleet result", serial, sharded)
    result.failures.extend(
        properties.check_fleet(serial, int(scenario.fields["requests"]))
    )
    result.failures.extend(
        properties.check_migrations(serial["migrations"], sharded["migrations"])
    )
    result.observables = serial
    return result


# -- serve: serial vs sharded gateway --------------------------------------------


def _serve_arm(
    scenario: Scenario, shards: int, failures: List[str]
) -> Dict[str, object]:
    from repro.fleet import AdmissionConfig, FleetService, make_policy, open_fleet
    from repro.serve import Gateway, ServeProfile, SloBudgetPolicy, synthesize

    f = scenario.fields
    with open_fleet(int(f["nodes"]), shards=shards) as cluster:
        trace = synthesize(
            ServeProfile(
                load=float(f["load"]),
                followup_prob=float(f["followup"]),
                diurnal_amplitude=float(f["diurnal"]),
                burst_prob=float(f["burst"]),
            ),
            sessions=int(f["sessions"]),
            fleet_slots=cluster.total_slots,
            seed=int(f["trace_seed"]),
        )
        admission_policy = (
            SloBudgetPolicy() if f["admission"] == "slo-budget" else None
        )
        service = FleetService(
            cluster,
            make_policy("best-fit"),
            admission=AdmissionConfig(),
            admission_policy=admission_policy,
        )
        outcome = Gateway(service, trace).run().to_dict()
        failures.extend(properties.check_ledgers(cluster))
        return outcome


def _run_serve(scenario: Scenario) -> OracleResult:
    result = OracleResult(scenario)
    serial = _serve_arm(scenario, 1, result.failures)
    sharded = _serve_arm(scenario, 2, result.failures)
    _diff(result.failures, "serial vs sharded gateway result", serial, sharded)
    result.failures.extend(properties.check_serve(serial))
    result.observables = serial
    return result


# -- capacity: analytic closed form vs fleet DES ---------------------------------

#: The subset of the capacity envelope the exact engine promises to
#: reproduce bit for bit (tests/test_capacity.py::TestExactRegime).
_EXACT_KEYS = ("requests", "placements", "rejections", "latency_ps", "span_ps")


def _run_capacity(scenario: Scenario) -> OracleResult:
    from repro.analytic import CapacityConfig, run_capacity

    result = OracleResult(scenario)
    f = scenario.fields
    config = CapacityConfig(
        tenants=int(f["tenants"]),
        nodes=int(f["nodes"]),
        load=float(f["load"]),
        seed=int(f["seed"]),
        mean_session_ps=ms(int(f["mean_session_ms"])),
        bootstrap=0,
    )
    analytic = run_capacity("analytic", config, goodput=False)
    if analytic["engine"] == "exact":
        des = run_capacity("optimus", config, goodput=False)
        for key in _EXACT_KEYS:
            _diff(
                result.failures,
                f"analytic vs DES capacity [{key}]",
                {key: analytic[key]},
                {key: des[key]},
            )
    result.failures.extend(properties.check_capacity(analytic))
    result.observables = {"analytic": analytic}
    return result


# -- dispatch --------------------------------------------------------------------

ORACLES: Dict[str, Callable[[Scenario], OracleResult]] = {
    "burst": _run_burst,
    "platform": _run_platform,
    "fleet": _run_fleet,
    "serve": _run_serve,
    "capacity": _run_capacity,
}


def run_scenario(scenario: Scenario) -> OracleResult:
    """Run one scenario through its kind's differential arms + properties."""
    scenario.spec().validate(scenario.fields)
    return ORACLES[scenario.kind](scenario)
