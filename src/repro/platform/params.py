"""Calibrated platform parameters — the single source of truth.

Every latency, bandwidth, and sizing constant of the simulated Skylake
HARP platform lives here, with its provenance:

* values the paper states directly (mux-tree level latency, IOTLB geometry,
  slice sizes, time slice) are used verbatim;
* values the paper implies (per-link latencies back-solved from Fig. 4a's
  124.2%/111.1% LinkedList overheads and the ~100 ns mux-tree adder) are
  derived in comments;
* remaining values (DRAM latency, link bandwidths) are calibrated so that
  headline measurements (pass-through MemBench ~14 GB/s, OPTIMUS MemBench
  ~90% of that) land where the paper's Figs. 4b and 6 put them.

Experiments construct a :class:`PlatformParams`, tweak fields (page size,
channel policy, conflict mitigation), and hand it to
:func:`repro.platform.builder.build_platform`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.mem.address import (
    DEFAULT_SLICE_BYTES,
    DEFAULT_SLICE_GAP_BYTES,
    GB,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.sim.clock import ms, ns, us


def default_fast_path() -> bool:
    """The process-wide default for :attr:`PlatformParams.fast_path`.

    The one ambient selector is the ``REPRO_FAST_PATH`` environment
    variable, read whenever params are built: ``0``/``false``/``off``
    select the reference path, anything else (or unset) the fast path.
    """
    return os.environ.get("REPRO_FAST_PATH", "1").lower() not in ("0", "false", "off")


@dataclass
class PlatformParams:
    """All tunables of the simulated platform, with HARP-calibrated defaults."""

    # ---- clocks ------------------------------------------------------------
    interconnect_mhz: float = 400.0  # Arria 10 shell clock (§6.1)
    cpu_ghz: float = 2.8  # Xeon (§6.1)

    # ---- system memory -------------------------------------------------------
    dram_bytes: int = 188 * GB  # testbed DRAM (§6.1)
    dram_latency_ps: int = ns(60)
    dram_bandwidth_gbps: float = 64.0

    # ---- links ------------------------------------------------------------------
    # One UPI + two PCIe 3.0 links (§6.1).  Latencies are back-solved from
    # Fig. 4a: pass-through LinkedList ~410 ns (UPI) / ~905 ns (PCIe) and
    # OPTIMUS adds ~100 ns of mux tree, giving the paper's 124.2% / 111.1%.
    # Raw wire rates; 16-byte headers on 64-byte payloads make the usable
    # read goodput ~(64/80) of these, i.e. ~13.9 GB/s aggregate — where a
    # pass-through MemBench lands (its OPTIMUS counterpart is then capped
    # at 12.8 GB/s by the one-request-per-two-cycles issue limit, ~90%).
    upi_bandwidth_gbps: float = 8.6
    upi_latency_ps: int = ns(160)
    pcie_bandwidth_gbps: float = 4.4
    pcie_latency_ps: int = ns(405)
    pcie_link_count: int = 2

    # ---- IOMMU ------------------------------------------------------------------
    page_size: int = PAGE_SIZE_2M  # 2 MB huge pages are the default (§5)
    iotlb_hit_ps: int = ns(2.5)  # one 400 MHz cycle
    iotlb_speculative_ps: int = ns(1)
    walker_occupancy_ps: int = ns(20)
    speculative_region_opt: bool = True  # §6.5's same-region pipeline effect

    # ---- hardware monitor ----------------------------------------------------------
    mux_tree_radix: int = 2  # three-level binary tree (§5)
    mux_level_latency_ps: int = ns(33)  # "each added layer ... ~33 ns" (§6.3)
    # "the accelerator can only transmit a memory request packet every two
    # cycles" under OPTIMUS (§6.3); pass-through issues every cycle.
    optimus_issue_interval_cycles: int = 2
    passthrough_issue_interval_cycles: int = 1
    auditor_latency_ps: int = ns(2.5)  # single-cycle GVA<->IOVA offset add (§4.1)
    shell_latency_ps: int = ns(5)
    # The shell accepts requests from the tree's root only as fast as the
    # interconnect can carry them; this makes the root's round-robin the
    # operative bandwidth allocator (§6.7's fairness guarantees).
    shell_accept_gbps: float = 13.5

    # ---- page table slicing -----------------------------------------------------------
    slice_bytes: int = DEFAULT_SLICE_BYTES  # 64 GB per virtual accelerator (§5)
    slice_gap_bytes: int = DEFAULT_SLICE_GAP_BYTES  # 128 MB IOTLB mitigation (§5)
    conflict_mitigation: bool = True

    # ---- MMIO / control plane -----------------------------------------------------------
    # Host-initiated MMIO: an uncached PCIe access takes ~0.3 us natively;
    # trap-and-emulate through the hypervisor costs ~1.2 us more (§2.1's
    # "control plane operations become more expensive due to hypervisor
    # trap-and-emulate" — this ratio produces Fig. 1's virtualized gap).
    mmio_native_ps: int = ns(300)
    mmio_trap_ps: int = ns(1200)

    # ---- temporal multiplexing -------------------------------------------------------------
    time_slice_ps: int = ms(10)  # default 10 ms slice (§5)
    preemption_timeout_ps: int = ms(100)  # forcible reset after this (§4.2)
    preempt_protocol_ps: int = us(30)  # drain + control-register handshake
    resume_protocol_ps: int = us(12)  # resume command + status poll
    state_save_bandwidth_gbps: float = 4.5  # accelerator state (de)serialization

    # ---- spatial multiplexing ---------------------------------------------------------------
    max_physical_accelerators: int = 8  # synthesis limit at 400 MHz (§5)

    # ---- simulator fast path ----------------------------------------------------------------
    # Request granularity of every accelerator; the CCI-P interface moves
    # whole cache lines, so all byte math derives from this one knob.
    cache_line: int = 64
    # Timing-preserving burst coalescing for streaming DMA (see DESIGN.md
    # "Performance architecture").  Timing-equivalent by construction and
    # verified by tests/test_fastpath_equivalence.py; turn off for the
    # per-line reference path.
    fast_path: bool = field(default_factory=default_fast_path)

    def __post_init__(self) -> None:
        if self.page_size not in (PAGE_SIZE_4K, PAGE_SIZE_2M):
            raise ConfigurationError("page_size must be 4 KB or 2 MB")
        if self.pcie_link_count < 1:
            raise ConfigurationError("need at least one PCIe link")
        if self.mux_tree_radix < 2:
            raise ConfigurationError("mux tree radix must be >= 2")
        if self.slice_bytes <= 0 or self.slice_gap_bytes < 0:
            raise ConfigurationError("invalid slice geometry")
        if self.cache_line <= 0 or self.cache_line & (self.cache_line - 1):
            raise ConfigurationError("cache_line must be a positive power of two")

    # -- convenience ------------------------------------------------------------

    def copy(self, **overrides: object) -> "PlatformParams":
        """A modified copy — experiments never mutate shared params."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


#: Immutable default instance for casual use; experiments call ``.copy()``.
DEFAULT_PARAMS = PlatformParams()
