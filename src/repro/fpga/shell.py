"""The FPGA shell: the manufacturer-provided IO interface (§2.1).

The shell terminates CCI-P on the FPGA side.  Host MMIO arrives here and
is dispatched either to the shell's own feature registers, or — for
everything above the shell window — to whatever the FPGA was configured
with: the OPTIMUS hardware monitor, or a single accelerator in the
pass-through baseline.

On the data plane the shell forwards accelerator DMA requests to the
memory system, adding its (small) pipeline latency.  Under OPTIMUS the
packets it sees have already been offset into IOVA space by an auditor;
under pass-through the shell relabels GVA as IOVA unchanged, modeling a
vIOMMU-backed identity between the guest process address space and the IO
virtual space (§6.1 Baseline).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from repro.errors import MmioFault
from repro.interconnect.channel_selector import VirtualChannel
from repro.interconnect.topology import MemorySystem
from repro.sim.engine import Engine
from repro.sim.packet import AddressSpace, Packet

#: Size of the shell's own MMIO window at the base of the BAR (§5).
SHELL_MMIO_BYTES = 0x1000

#: Shell feature registers (offsets within the shell window).
REG_DEVICE_ID = 0x000
REG_NUM_ACCELERATORS = 0x008
REG_OPTIMUS_MAGIC = 0x010

#: Value of REG_OPTIMUS_MAGIC when an OPTIMUS-compatible monitor is loaded.
OPTIMUS_MAGIC = 0x4F5054494D5553  # "OPTIMUS"


class MmioTarget(Protocol):
    """Anything that can terminate MMIO above the shell window."""

    def mmio_write(self, offset: int, value: int) -> None: ...

    def mmio_read(self, offset: int) -> int: ...


class Shell:
    """The CCI-P shell for one FPGA."""

    def __init__(
        self,
        engine: Engine,
        memory: MemorySystem,
        *,
        latency_ps: int,
        device_id: int = 0xA10,
    ) -> None:
        self.engine = engine
        self.memory = memory
        self.latency_ps = latency_ps
        self.device_id = device_id
        self._target: Optional[MmioTarget] = None
        self._num_accelerators = 0

    # -- configuration ("loading a bitstream") -----------------------------------

    def configure(self, target: MmioTarget, num_accelerators: int) -> None:
        """Load a configuration: the monitor (OPTIMUS) or one AFU (PT)."""
        self._target = target
        self._num_accelerators = num_accelerators

    @property
    def configured(self) -> bool:
        return self._target is not None

    # -- MMIO control plane --------------------------------------------------------

    def mmio_write(self, address: int, value: int) -> None:
        if address < SHELL_MMIO_BYTES:
            raise MmioFault(f"shell registers are read-only (write to {address:#x})")
        if self._target is None:
            raise MmioFault("FPGA is not configured")
        self._target.mmio_write(address - SHELL_MMIO_BYTES, value)

    def mmio_read(self, address: int) -> int:
        if address < SHELL_MMIO_BYTES:
            return self._read_shell_register(address)
        if self._target is None:
            raise MmioFault("FPGA is not configured")
        return self._target.mmio_read(address - SHELL_MMIO_BYTES)

    def _read_shell_register(self, offset: int) -> int:
        if offset == REG_DEVICE_ID:
            return self.device_id
        if offset == REG_NUM_ACCELERATORS:
            return self._num_accelerators
        if offset == REG_OPTIMUS_MAGIC:
            from repro.core.monitor import HardwareMonitor  # local: avoid cycle

            if isinstance(self._target, HardwareMonitor):
                return OPTIMUS_MAGIC
            return 0
        raise MmioFault(f"unknown shell register {offset:#x}")

    # -- DMA data plane ----------------------------------------------------------------

    def dma_to_memory(
        self,
        packet: Packet,
        channel: VirtualChannel,
        on_response: Callable[..., None],
        *rest: Any,
    ) -> None:
        """Forward an IOVA-space DMA request into the memory system.

        The response arrives as ``on_response(response, *rest)``.
        """
        self.engine.call_after(
            self.latency_ps, self.memory.dma, packet, channel, on_response, *rest
        )

    def passthrough_dma_sink(
        self,
        packet: Packet,
        channel: VirtualChannel,
        on_response: Callable[[Optional[Packet]], None],
    ) -> None:
        """DMA sink for the pass-through baseline: GVA == IOVA (vIOMMU)."""
        if packet.space is AddressSpace.GVA:
            packet.space = AddressSpace.IOVA
        self.dma_to_memory(packet, channel, on_response)
