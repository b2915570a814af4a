"""Discrete-event simulation kernel used by every other subsystem."""

from repro.sim.clock import (
    CPU_CLOCK,
    INTERCONNECT_CLOCK,
    Clock,
    gbps_to_bytes_per_ps,
    bytes_per_ps_to_gbps,
    ms,
    ns,
    to_ms,
    to_ns,
    to_seconds,
    to_us,
    us,
)
from repro.sim.engine import Engine, Future, Process
from repro.sim.packet import (
    CACHE_LINE_BYTES,
    AddressSpace,
    Packet,
    PacketKind,
    dma_read,
    dma_write,
)
from repro.sim.port import RoundRobinArbiter, ThroughputServer
from repro.sim.stats import (
    BandwidthMeter,
    Counters,
    LatencyRecorder,
    OnlineQuantile,
    UtilizationTracker,
    normalized_range,
)

__all__ = [
    "AddressSpace",
    "BandwidthMeter",
    "CACHE_LINE_BYTES",
    "CPU_CLOCK",
    "Clock",
    "Counters",
    "Engine",
    "Future",
    "INTERCONNECT_CLOCK",
    "LatencyRecorder",
    "OnlineQuantile",
    "Packet",
    "PacketKind",
    "Process",
    "RoundRobinArbiter",
    "ThroughputServer",
    "UtilizationTracker",
    "bytes_per_ps_to_gbps",
    "dma_read",
    "dma_write",
    "gbps_to_bytes_per_ps",
    "ms",
    "normalized_range",
    "ns",
    "to_ms",
    "to_ns",
    "to_seconds",
    "to_us",
    "us",
]
