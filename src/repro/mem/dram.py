"""System DRAM: a sparse backing store plus a simple timing model.

DRAM is never the bottleneck in the paper's experiments (the CPU-FPGA
interconnect saturates first), so the model is a fixed access latency plus
a generous bandwidth shaper that exists only to keep the model honest if a
future experiment drives it harder.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.mem.address import GB
from repro.mem.sparse import SparseMemory
from repro.sim.clock import gbps_to_bytes_per_ps
from repro.sim.engine import Engine
from repro.sim.port import ThroughputServer


class Dram:
    """Host DRAM: functional store + access timing."""

    def __init__(
        self,
        engine: Engine,
        *,
        size_bytes: int = 188 * GB,  # the paper's testbed has 188 GB
        access_latency_ps: int = 60_000,
        bandwidth_gbps: float = 64.0,
    ) -> None:
        if size_bytes <= 0:
            raise ConfigurationError("DRAM size must be positive")
        self.engine = engine
        self.store = SparseMemory(size_bytes)
        self.access_latency_ps = access_latency_ps
        self._server = ThroughputServer(
            engine,
            "dram",
            gbps_to_bytes_per_ps(bandwidth_gbps),
            latency_ps=access_latency_ps,
        )
        self.reads = 0
        self.writes = 0

    @property
    def size_bytes(self) -> int:
        return self.store.size_bytes

    # -- timed interface -------------------------------------------------------

    def read_async(
        self, hpa: int, size: int, on_done: Callable[..., None], *args: Any
    ) -> None:
        """Timed read: ``on_done(data, *args)`` after the DRAM access completes."""
        self.reads += 1
        self._server.submit(size, self._deliver_read, hpa, size, on_done, *args)

    def _deliver_read(
        self, hpa: int, size: int, on_done: Callable[..., None], *args: Any
    ) -> None:
        on_done(self.store.read(hpa, size), *args)

    def write_async(
        self,
        hpa: int,
        data: Optional[bytes],
        size: int,
        on_done: Callable[..., None],
        *args: Any,
    ) -> None:
        """Timed write, then ``on_done(*args)``; ``data=None`` models a
        payload we only shape, not store."""
        self.writes += 1
        if data is not None:
            self.store.write(hpa, data)
        self._server.submit(size, on_done, *args)

    # -- functional shortcuts (zero-time; used by the CPU model) ---------------

    def read_now(self, hpa: int, size: int) -> bytes:
        self.reads += 1
        return self.store.read(hpa, size)

    def write_now(self, hpa: int, data: bytes) -> None:
        self.writes += 1
        self.store.write(hpa, data)
