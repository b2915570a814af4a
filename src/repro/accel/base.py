"""Accelerator model machinery: profiles, execution contexts, jobs.

The paper's accelerators are Verilog circuits; here each is a behavioral
model (:class:`AcceleratorJob`) that performs the *real* computation in
Python (so functional results are testable) while issuing DMAs and
charging compute cycles through an :class:`ExecutionContext`, which is the
simulation-time equivalent of the circuit's datapath.

The preemption interface (§4.2) is implemented cooperatively, exactly as
the paper prescribes for accelerator designers: a job calls
``yield from ctx.preempt_point()`` between units of work; when the
hypervisor has requested preemption the context drains in-flight DMAs,
the body returns, and the hypervisor packs the job's *minimal architected
state* into the guest-provided state buffer.  Each job class declares that
state once (:attr:`AcceleratorJob.state_fields`); the base class's
``save_state``/``restore_state`` are the only code that packs it.  On
resume the hypervisor restores the declared fields and starts the body
again — the body must therefore be written re-entrantly, resuming from its
saved cursor (e.g. LinkedList saves just the next node address).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Generator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.fpga.afu import AfuSocket
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter
from repro.interconnect.channel_selector import VirtualChannel
from repro.sim.clock import Clock
from repro.sim.engine import Engine, Future

# Control-register offsets within each accelerator's 4 KB MMIO page (§4.2).
# These are privileged: the hypervisor traps guest access and drives them
# itself; guests only ever see emulated values.
CTRL_CMD = 0xE0
CTRL_STATUS = 0xE8
CTRL_STATE_ADDR = 0xF0
CTRL_STATE_SIZE = 0xF8

CMD_START = 1
CMD_PREEMPT = 2
CMD_RESUME = 3

STATUS_IDLE = 0
STATUS_RUNNING = 1
STATUS_SAVED = 2
STATUS_DONE = 3


@dataclass(frozen=True)
class AcceleratorProfile:
    """Static characteristics of one accelerator circuit (Table 1 / 2)."""

    name: str
    description: str
    loc_verilog: int  # lines of Verilog in the paper's implementation
    freq_mhz: float  # synthesis frequency (Table 1)
    footprint: ResourceFootprint  # single-instance (PT column of Table 2)
    character: SynthesisCharacter = SynthesisCharacter.NORMAL
    max_outstanding: int = 64  # DMA window (closed-loop issue depth)
    state_bytes: int = 64  # architected state saved on preemption

    @property
    def clock(self) -> Clock:
        return Clock(self.freq_mhz)


class ExecutionContext:
    """The datapath a job runs against: DMA, clock, preemption plumbing."""

    def __init__(
        self,
        engine: Engine,
        socket: AfuSocket,
        *,
        clock: Clock,
        channel: VirtualChannel = VirtualChannel.VA,
    ) -> None:
        self.engine = engine
        self.socket = socket
        self.clock = clock
        self.channel = channel
        self.preempt_requested = False
        self.saved: Optional[Future] = None
        self._save_cost_ps = 0

    # -- datapath ---------------------------------------------------------------

    def read(self, gva: int, size: int = 64) -> Future:
        return self.socket.dma.read(gva, size, channel=self.channel)

    def write(self, gva: int, data: Optional[bytes] = None, size: Optional[int] = None) -> Future:
        return self.socket.dma.write(gva, data, size, channel=self.channel)

    def read_burst(self, gva: int, size: int) -> Future:
        """Read ``size`` contiguous bytes as one coalescible burst.

        Timing-equivalent to issuing per-line :meth:`read` calls and
        waiting for all of them; the future resolves to the joined bytes.
        """
        return self.socket.dma.read(gva, size, channel=self.channel, coalesced=True)

    @property
    def coalescing_enabled(self) -> bool:
        """True when the simulator fast path is attached to this datapath."""
        return self.socket.dma.fastpath is not None

    def cycles(self, n: float) -> int:
        """Compute time: ``n`` cycles of the accelerator's own clock, in ps."""
        return self.clock.cycles(n)

    # -- preemption interface (§4.2) ------------------------------------------------

    def arm_preemption(self, save_cost_ps: int) -> Future:
        """Hypervisor side: request preemption; returns the 'saved' future."""
        self.preempt_requested = True
        self._save_cost_ps = save_cost_ps
        self.saved = self.engine.future()
        return self.saved

    def preempt_point(self) -> Generator:
        """Job side: yield-from between work units; True when preempted."""
        if not self.preempt_requested:
            return False
        # Stop issuing: queued-but-unissued requests are dropped (their
        # futures resolve to None; re-entrant jobs re-issue after resume),
        # then all genuinely in-flight transactions drain (§4.2).
        self.socket.dma.abandon_queued()
        yield self.socket.dma.drain()
        if self._save_cost_ps:
            yield self._save_cost_ps
        assert self.saved is not None
        if not self.saved.done():
            self.saved.set_result(True)
        return True


class AcceleratorJob:
    """Base class for one virtual accelerator's workload instance.

    Subclasses implement :meth:`body` (a re-entrant generator), declare
    their architected state in :attr:`state_fields`, and set ``self.done``
    when the job finishes.  Application registers (mirrored into
    ``self.regs`` by the hypervisor), constructor arguments (recorded in
    ``job_kwargs``) and the declared fields are the only ways state
    reaches a job: a fresh job given all three resumes where a preempted
    one stopped.
    """

    profile: AcceleratorProfile

    #: The minimal architected state a preemption saves (§4.2): ordered
    #: ``(attribute path, struct code)`` pairs, packed little-endian.  A
    #: dotted path reaches into a member (``"rng.state"``); a tuple value
    #: packs as a sequence (``"8Q"``).
    state_fields: Tuple[Tuple[str, str], ...] = ()

    def __new__(cls, *args, **kwargs):
        job = super().__new__(cls)
        job.job_kwargs = dict(kwargs)  # a checkpoint carries them
        return job

    def __init__(self, profile: Optional[AcceleratorProfile] = None) -> None:
        if profile is not None:
            self.profile = profile
        if getattr(self, "profile", None) is None:
            raise ConfigurationError("job needs an AcceleratorProfile")
        self.done = False
        self.regs: dict[int, int] = {}  # application-register view
        self.completion: Optional[Future] = None

    # -- configuration -----------------------------------------------------------

    def reg(self, offset: int, default: int = 0) -> int:
        return self.regs.get(offset, default)

    def configure(self, registers: dict[int, int]) -> None:
        """Receive the guest's application-register writes."""
        self.regs.update(registers)

    # -- execution ----------------------------------------------------------------

    def body(self, ctx: ExecutionContext) -> Generator:
        """The circuit's behavior; must be re-entrant across preemptions."""
        raise NotImplementedError

    # -- preemption state (§4.2: designers choose the minimal state) -----------------

    def state_size(self) -> int:
        """The guest state buffer the job needs, and what a save transfers."""
        return self.profile.state_bytes

    def save_state(self) -> bytes:
        """Pack the declared :attr:`state_fields`."""
        packed = b""
        for path, code in self.state_fields:
            value = attrgetter(path)(self)
            packed += struct.pack("<" + code, *(value if isinstance(value, tuple) else [value]))
        return packed

    def restore_state(self, data: bytes) -> None:
        """Unpack bytes from :meth:`save_state` into the declared fields."""
        offset = 0
        for path, code in self.state_fields:
            values = struct.unpack_from("<" + code, data, offset)
            offset += struct.calcsize("<" + code)
            owner, _, name = path.rpartition(".")
            setattr(attrgetter(owner)(self) if owner else self, name,
                    values if len(values) > 1 else values[0])

    # -- bookkeeping ---------------------------------------------------------------

    def progress_units(self) -> int:
        """Monotonic progress counter (for fairness/throughput accounting)."""
        return 0
