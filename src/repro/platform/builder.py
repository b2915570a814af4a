"""Platform assembly: one call builds a complete simulated HARP machine.

:func:`build_platform` wires the substrates together in one of two modes:

* ``optimus`` — N accelerator sockets behind the hardware monitor
  (auditors + multiplexer tree + VCU), the configuration of Fig. 3;
* ``passthrough`` — a single socket wired directly to the shell, the
  paper's baseline (direct assignment with vIOMMU, §6.1).

The returned :class:`Platform` owns the simulation engine and everything
on it, and is the object hypervisors, guests, and experiments talk to.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigurationError
from repro.fpga.afu import AfuSocket
from repro.fpga.shell import Shell
from repro.interconnect.channel_selector import ChannelSelector
from repro.interconnect.link import Link, LinkKind
from repro.interconnect.topology import MemorySystem
from repro.mem.dram import Dram
from repro.mem.iommu import Iommu
from repro.platform.fastpath import FastPath
from repro.platform.params import PlatformParams
from repro.sim.clock import Clock, gbps_to_bytes_per_ps
from repro.sim.engine import Engine
from repro.telemetry import MetricRegistry, current_tracer

if TYPE_CHECKING:
    from repro.core.monitor import HardwareMonitor


class PlatformMode(enum.Enum):
    OPTIMUS = "optimus"
    PASSTHROUGH = "passthrough"


class Platform:
    """A fully wired simulated shared-memory FPGA machine."""

    def __init__(
        self,
        engine: Engine,
        params: PlatformParams,
        mode: PlatformMode,
        dram: Dram,
        iommu: Iommu,
        links: List[Link],
        selector: ChannelSelector,
        memory: MemorySystem,
        shell: Shell,
        sockets: List[AfuSocket],
        monitor: Optional[HardwareMonitor],
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.engine = engine
        self.params = params
        self.mode = mode
        self.dram = dram
        self.iommu = iommu
        self.links = links
        self.selector = selector
        self.memory = memory
        self.shell = shell
        self.sockets = sockets
        self.monitor = monitor
        self.metrics = metrics if metrics is not None else MetricRegistry("platform")
        self.interconnect_clock = Clock(params.interconnect_mhz)

    @property
    def n_sockets(self) -> int:
        return len(self.sockets)

    def snapshot(self) -> dict:
        """One summary per registered instrument (``None`` when empty)."""
        return self.metrics.snapshot()

    def reset_measurements(self) -> None:
        """Zero every meter/counter before a measurement window."""
        self.memory.reset_meters()
        self.iommu.reset_stats()
        for socket in self.sockets:
            socket.dma.reset_meters()

    def trace_flush(self) -> None:
        """Close open meter windows into the trace (finalize hook)."""
        scope = self.engine.trace
        if scope is None:
            return
        for link in self.links:
            link.trace_flush()
        now = self.engine.now
        stats = self.iommu.iotlb.stats
        scope.counter("iotlb", now,
                      {"hits": float(stats.hits), "misses": float(stats.misses),
                       "evictions": float(stats.evictions)},
                      tid=scope.thread("iommu.events"), cat="iotlb")
        for meter in (self.memory.read_meter, self.memory.write_meter):
            summary = meter.summary()
            if summary is not None:
                scope.complete("window", meter.window_start_ps, now,
                               tid=scope.thread(meter.name), cat="link",
                               args=summary)

    def run_for(self, duration_ps: int) -> None:
        self.engine.run(until_ps=self.engine.now + duration_ps)


def build_platform(
    params: Optional[PlatformParams] = None,
    *,
    n_accelerators: int = 1,
    mode: PlatformMode = PlatformMode.OPTIMUS,
    max_outstanding: int = 64,
    mux_topology=None,
) -> Platform:
    """Construct a platform; see module docstring for the two modes."""
    params = params or PlatformParams()
    if mode is PlatformMode.PASSTHROUGH and n_accelerators != 1:
        raise ConfigurationError("pass-through assigns exactly one accelerator")
    if n_accelerators < 1 or n_accelerators > params.max_physical_accelerators:
        raise ConfigurationError(
            f"n_accelerators must be in [1, {params.max_physical_accelerators}]"
        )

    engine = Engine()
    interconnect_clock = Clock(params.interconnect_mhz)

    dram = Dram(
        engine,
        size_bytes=params.dram_bytes,
        access_latency_ps=params.dram_latency_ps,
        bandwidth_gbps=params.dram_bandwidth_gbps,
    )
    iommu = Iommu(
        engine,
        page_size=params.page_size,
        hit_latency_ps=params.iotlb_hit_ps,
        speculative_latency_ps=params.iotlb_speculative_ps,
        walker_occupancy_ps=params.walker_occupancy_ps,
        speculative_region_opt=params.speculative_region_opt,
    )

    upi = Link(
        engine,
        "upi0",
        LinkKind.UPI,
        bandwidth_gbps=params.upi_bandwidth_gbps,
        latency_ps=params.upi_latency_ps,
    )
    pcie_links = [
        Link(
            engine,
            f"pcie{i}",
            LinkKind.PCIE,
            bandwidth_gbps=params.pcie_bandwidth_gbps,
            latency_ps=params.pcie_latency_ps,
        )
        for i in range(params.pcie_link_count)
    ]
    selector = ChannelSelector(upi, pcie_links)
    memory = MemorySystem(engine, iommu, dram, selector)
    shell = Shell(engine, memory, latency_ps=params.shell_latency_ps)

    issue_interval = (
        params.optimus_issue_interval_cycles
        if mode is PlatformMode.OPTIMUS
        else params.passthrough_issue_interval_cycles
    )
    sockets = []
    for accel_id in range(n_accelerators):
        socket = AfuSocket(
            engine,
            accel_id,
            clock=interconnect_clock,
            issue_interval_cycles=issue_interval,
            max_outstanding=max_outstanding,
            spec_probe=partial(iommu.in_speculative_streak, accel_id),
        )
        sockets.append(socket)

    monitor: Optional[HardwareMonitor] = None
    if mode is PlatformMode.OPTIMUS:
        # The pass-through baseline has no hardware monitor, so only an
        # OPTIMUS platform loads it (and the auditors, mux tree and VCU).
        from repro.core.monitor import HardwareMonitor

        monitor = HardwareMonitor(
            engine,
            shell,
            sockets,
            mux_radix=params.mux_tree_radix,
            mux_level_latency_ps=params.mux_level_latency_ps,
            auditor_latency_ps=params.auditor_latency_ps,
            interconnect_clock=interconnect_clock,
            mux_topology=mux_topology,
            root_cost_per_line_cycles=(
                64.0 / gbps_to_bytes_per_ps(params.shell_accept_gbps)
            ) / interconnect_clock.period_ps,
        )
        shell.configure(monitor, n_accelerators)
    else:
        socket = sockets[0]
        socket.connect(shell.passthrough_dma_sink)
        shell.configure(socket, 1)
        if params.fast_path:
            # Burst coalescing is only provably exact on the pass-through
            # datapath (sole DMA master, no multiplexer arbitration); under
            # OPTIMUS every burst splits into reference per-line packets.
            socket.dma.fastpath = FastPath(
                engine, memory, interconnect_clock, params.shell_latency_ps
            )

    # Every instrument the platform owns, behind the uniform protocol
    # (name / reset / summary) with hierarchical dotted names.
    metrics = MetricRegistry("platform")
    metrics.register(iommu.iotlb.stats)  # "iommu.iotlb"
    for link in [upi, *pcie_links]:
        metrics.register(link.meter_to_memory)  # e.g. "upi0.bw.to_mem"
        metrics.register(link.meter_from_memory)
    metrics.register(memory.read_meter)  # "mem.read" / "mem.write"
    metrics.register(memory.write_meter)
    for socket in sockets:
        metrics.register(socket.dma.read_meter)  # e.g. "afu0.read"
        metrics.register(socket.dma.write_meter)
        metrics.register(socket.dma.latency)  # e.g. "afu0.latency"

    platform = Platform(
        engine=engine,
        params=params,
        mode=mode,
        dram=dram,
        iommu=iommu,
        links=[upi, *pcie_links],
        selector=selector,
        memory=memory,
        shell=shell,
        sockets=sockets,
        monitor=monitor,
        metrics=metrics,
    )

    tracer = current_tracer()
    if tracer is not None and engine.trace is not None:
        engine.trace.set_process_name(
            f"platform{engine.trace.pid} ({mode.value})"
        )
        tracer.on_finalize(platform.trace_flush)
    return platform
