"""CPU-FPGA interconnect links.

Skylake HARP exposes one UPI link and two PCIe 3.0 x8 links between the
Xeon and the Arria 10 (§6.1).  Each :class:`Link` is a pair of directional
:class:`~repro.sim.port.ThroughputServer` pipes — ``to_memory`` (requests
and write payloads) and ``from_memory`` (read payloads and acks) — so read
and write traffic contend realistically with each other and with IOMMU
page-walk fetches.

UPI is lower latency than PCIe for reads (§6.1, "although UPI has lower
latency for reads, the channel selector places some reads on PCIe"); the
default latencies below are calibrated so that a pass-through LinkedList
measures ~410 ns on UPI and ~900 ns on PCIe, matching the ratios implied
by Fig. 4a.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim.clock import gbps_to_bytes_per_ps
from repro.sim.engine import Engine
from repro.sim.port import ThroughputServer
from repro.sim.stats import BandwidthMeter


class LinkKind(enum.Enum):
    UPI = "upi"
    PCIE = "pcie"


class Link:
    """One physical CPU<->FPGA link with independent directions."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        kind: LinkKind,
        *,
        bandwidth_gbps: float,
        latency_ps: int,
    ) -> None:
        self.engine = engine
        self.name = name
        self.kind = kind
        self.latency_ps = latency_ps
        rate = gbps_to_bytes_per_ps(bandwidth_gbps)
        self._nominal_rate = rate
        self.degrade_factor = 1.0
        self.to_memory = ThroughputServer(engine, f"{name}.to_mem", rate, latency_ps)
        self.from_memory = ThroughputServer(engine, f"{name}.from_mem", rate, latency_ps)
        self.meter_to_memory = BandwidthMeter(engine, f"{name}.bw.to_mem")
        self.meter_from_memory = BandwidthMeter(engine, f"{name}.bw.from_mem")
        # Tracing: per-channel occupancy is emitted as *window* spans at
        # instrument-reset boundaries (plus a finalize flush), never per
        # packet — meter totals are only guaranteed identical between the
        # fast path and the reference path at idle instants, which is
        # exactly where experiments reset their meters.
        self._trace = engine.trace
        if self._trace is not None:
            self._trace_tid_to = self._trace.thread(f"{name}.to_mem")
            self._trace_tid_from = self._trace.thread(f"{name}.from_mem")

    def degrade(self, factor: float) -> None:
        """Scale both directions down to ``nominal_rate / factor``.

        Models a link retraining at a lower width/speed (fault injection).
        Committed packets keep their service times; only traffic submitted
        after the change sees the reduced rate — see
        :meth:`~repro.sim.port.ThroughputServer.set_rate`.
        """
        if factor < 1.0:
            raise ConfigurationError(f"{self.name}: degrade factor must be >= 1")
        self.degrade_factor = factor
        rate = self._nominal_rate / factor
        self.to_memory.set_rate(rate)
        self.from_memory.set_rate(rate)
        if self._trace is not None:
            self._trace.instant("link.degrade", self.engine.now,
                                tid=self._trace_tid_to, cat="fault",
                                args={"link": self.name, "factor": factor})

    def restore(self) -> None:
        """Return both directions to the nominal rate."""
        if self.degrade_factor == 1.0:
            return
        self.degrade_factor = 1.0
        self.to_memory.set_rate(self._nominal_rate)
        self.from_memory.set_rate(self._nominal_rate)
        if self._trace is not None:
            self._trace.instant("link.restore", self.engine.now,
                                tid=self._trace_tid_to, cat="fault",
                                args={"link": self.name})

    def send_to_memory(self, wire_bytes: int, deliver: Callable[..., None], *args: Any) -> int:
        meter = self.meter_to_memory
        meter.bytes_total += wire_bytes
        meter.packets_total += 1
        return self.to_memory.submit(wire_bytes, deliver, *args)

    def send_from_memory(self, wire_bytes: int, deliver: Callable[..., None], *args: Any) -> int:
        meter = self.meter_from_memory
        meter.bytes_total += wire_bytes
        meter.packets_total += 1
        return self.from_memory.submit(wire_bytes, deliver, *args)

    def reserve_round_trips(
        self,
        count: int,
        request_bytes: int,
        to_memory_busy_through_ps: int,
        response_bytes: int,
        from_memory_busy_through_ps: int,
    ) -> None:
        """Eventless counterpart of ``count`` request/response pairs through
        :meth:`send_to_memory` and :meth:`send_from_memory` (fast path): the
        caller planned the shaping, see
        :meth:`~repro.sim.port.ThroughputServer.reserve_batch`."""
        self.meter_to_memory.record_burst(request_bytes * count, count)
        self.to_memory.reserve_batch(request_bytes, count, to_memory_busy_through_ps)
        self.meter_from_memory.record_burst(response_bytes * count, count)
        self.from_memory.reserve_batch(response_bytes, count, from_memory_busy_through_ps)

    def round_trip(self, request_bytes: int, response_bytes: int, on_done: Callable[[], None]) -> None:
        """Request out, response back — used for IOMMU page-walk fetches."""
        self.send_to_memory(request_bytes, self.send_from_memory, response_bytes, on_done)

    def trace_flush(self) -> None:
        """Emit one occupancy-window span per direction (if traced)."""
        if self._trace is None:
            return
        for meter, tid in (
            (self.meter_to_memory, self._trace_tid_to),
            (self.meter_from_memory, self._trace_tid_from),
        ):
            summary = meter.summary()
            if summary is not None:
                self._trace.complete("window", meter.window_start_ps,
                                     self.engine.now, tid=tid, cat="link",
                                     args=summary)

    def reset_meters(self) -> None:
        self.trace_flush()
        self.meter_to_memory.reset()
        self.meter_from_memory.reset()
