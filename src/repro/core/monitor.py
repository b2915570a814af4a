"""The assembled hardware monitor (Fig. 3).

``HardwareMonitor`` wires the gray boxes of the paper's Fig. 3 together:

    shell <-> VCU <-> multiplexer tree <-> auditors <-> accelerators

and reports its own resource footprint for Table 2.  It is the single
object the shell is configured with under OPTIMUS; the pass-through
baseline configures the shell with a bare accelerator socket instead.
"""

from __future__ import annotations

from typing import List

from repro.core.auditor import Auditor
from repro.core.mux_tree import AsymmetricMuxTree, MuxTree
from repro.core.vcu import VirtualizationControlUnit, accel_mmio_base
from repro.errors import ConfigurationError
from repro.fpga.afu import AfuSocket
from repro.fpga.resources import ResourceFootprint, monitor_footprint
from repro.fpga.shell import Shell
from repro.sim.clock import Clock
from repro.sim.engine import Engine


class HardwareMonitor:
    """OPTIMUS's on-FPGA component: VCU + multiplexer tree + auditors."""

    def __init__(
        self,
        engine: Engine,
        shell: Shell,
        sockets: List[AfuSocket],
        *,
        mux_radix: int,
        mux_level_latency_ps: int,
        auditor_latency_ps: int,
        interconnect_clock: Clock,
        mux_topology=None,
        root_cost_per_line_cycles: float = 1.0,
    ) -> None:
        if not sockets:
            raise ConfigurationError("hardware monitor needs at least one socket")
        self.engine = engine
        self.shell = shell
        self.sockets = sockets

        self.auditors: List[Auditor] = []
        for socket in sockets:
            auditor = Auditor(
                engine,
                socket.accel_id,
                latency_ps=auditor_latency_ps,
            )
            auditor.socket = socket
            self.auditors.append(auditor)

        if mux_topology is not None:
            # Asymmetric arrangement (§4.1): fewer accelerators on a
            # favoured path receive a larger share of root bandwidth.
            self.tree = AsymmetricMuxTree(
                engine,
                mux_topology,
                clock=interconnect_clock,
                level_latency_ps=mux_level_latency_ps,
                root_egress=shell.dma_to_memory,
                root_cost_per_line_cycles=root_cost_per_line_cycles,
            )
        else:
            self.tree = MuxTree(
                engine,
                n_leaves=len(sockets),
                radix=mux_radix,
                clock=interconnect_clock,
                level_latency_ps=mux_level_latency_ps,
                root_egress=shell.dma_to_memory,
                root_cost_per_line_cycles=root_cost_per_line_cycles,
            )

        for index, (auditor, socket) in enumerate(zip(self.auditors, sockets)):
            auditor.tree_ingress = self.tree.leaf_ingress(index)
            socket.connect(auditor.dma_sink)

        self.vcu = VirtualizationControlUnit(self.auditors, sockets)

    # -- control plane (MmioTarget protocol for the shell) ---------------------------

    def mmio_write(self, offset: int, value: int) -> None:
        self.vcu.mmio_write(offset, value)

    def mmio_read(self, offset: int) -> int:
        return self.vcu.mmio_read(offset)

    # -- reporting -----------------------------------------------------------------------

    def violation_counts(self) -> dict:
        """Aggregate isolation-violation counters across all auditors.

        Sums every per-socket counter bag (fenced DMAs, discarded MMIO,
        watchdog quarantines, ...) into one sorted name -> count dict; the
        chaos experiments report this as the platform's violation surface.
        """
        totals: dict = {}
        for auditor in self.auditors:
            for name, value in auditor.counters.snapshot().items():
                totals[name] = totals.get(name, 0) + value
        return dict(sorted(totals.items()))

    @property
    def footprint(self) -> ResourceFootprint:
        return monitor_footprint(len(self.sockets), self.tree.node_count)

    def accel_mmio_base(self, accel_index: int) -> int:
        """MMIO offset of accelerator ``accel_index``, above the shell window."""
        if not 0 <= accel_index < len(self.sockets):
            raise ConfigurationError(f"accelerator {accel_index} out of range")
        return accel_mmio_base(accel_index)
