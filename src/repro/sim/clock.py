"""Clock domains and time units.

The simulator measures time in integer **picoseconds**.  Picoseconds are
exact for every clock the platform uses (400 MHz -> 2500 ps, 200 MHz ->
5000 ps, 100 MHz -> 10000 ps, 2.8 GHz CPU -> ~357 ps), which keeps event
ordering deterministic and avoids floating-point drift over long runs.

:class:`Clock` converts between cycles of a given frequency and simulated
time, and provides edge alignment for components that only act on their own
clock edges (e.g. the multiplexer tree accepting one packet per 400 MHz
cycle).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Picoseconds per common engineering time units.
PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return round(value * PS_PER_NS)


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return round(value * PS_PER_US)


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return round(value * PS_PER_MS)


def to_ns(ps: int) -> float:
    """Convert picoseconds to nanoseconds."""
    return ps / PS_PER_NS


def to_us(ps: int) -> float:
    """Convert picoseconds to microseconds."""
    return ps / PS_PER_US


def to_ms(ps: int) -> float:
    """Convert picoseconds to milliseconds."""
    return ps / PS_PER_MS


def to_seconds(ps: int) -> float:
    """Convert picoseconds to seconds."""
    return ps / PS_PER_S


def gbps_to_bytes_per_ps(gb_per_s: float) -> float:
    """Convert a bandwidth in GB/s (1e9 bytes/s) to bytes per picosecond."""
    return gb_per_s * 1e9 / PS_PER_S


def bytes_per_ps_to_gbps(bytes_per_ps: float) -> float:
    """Convert bytes per picosecond back to GB/s (1e9 bytes/s)."""
    return bytes_per_ps * PS_PER_S / 1e9


@dataclass(frozen=True)
class Clock:
    """A clock domain defined by its frequency in MHz.

    The platform interconnect runs at 400 MHz; accelerators run at the
    frequency their synthesis achieved (Table 1 of the paper: 100, 200 or
    400 MHz).
    """

    freq_mhz: float

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise ConfigurationError(f"clock frequency must be positive, got {self.freq_mhz}")
        # The period is consulted on every cycle->time conversion, which
        # sits on the simulator's hottest path; cache it once (the dataclass
        # is frozen, so the frequency can never change underneath it).
        object.__setattr__(self, "_period_ps", round(PS_PER_S / (self.freq_mhz * 1e6)))

    @property
    def period_ps(self) -> int:
        """Length of one cycle in picoseconds (rounded to the nearest ps)."""
        return self._period_ps

    def cycles(self, n: float) -> int:
        """Duration of ``n`` cycles in picoseconds."""
        return round(n * self._period_ps)

    def next_edge(self, now_ps: int) -> int:
        """The first clock edge at or after ``now_ps``.

        Edges are at integer multiples of the period, phase 0.
        """
        period = self._period_ps
        remainder = now_ps % period
        if remainder == 0:
            return now_ps
        return now_ps + (period - remainder)


#: The 400 MHz clock of the HARP interconnect / CCI-P shell.
INTERCONNECT_CLOCK = Clock(400.0)

#: The host CPU clock (2.8 GHz Xeon in the paper's testbed).
CPU_CLOCK = Clock(2800.0)
