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

Experiments construct a :class:`PlatformParams` with the knobs they vary
(page size, the §6.5 speculation, conflict mitigation, the time slice)
and hand it to :func:`repro.platform.builder.build_platform`.  The
calibrated testbed values are class constants: read like fields, but not
constructor arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigurationError
from repro.mem.address import (
    CACHE_LINE_BYTES,
    DEFAULT_SLICE_BYTES,
    DEFAULT_SLICE_GAP_BYTES,
    GB,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.sim.clock import ms, ns, us


@dataclass
class PlatformParams:
    """The knobs an experiment turns, over HARP-calibrated class constants."""

    # ---- knobs ---------------------------------------------------------------
    page_size: int = PAGE_SIZE_2M  # 2 MB huge pages are the default (§5)
    speculative_region_opt: bool = True  # §6.5's same-region pipeline effect
    conflict_mitigation: bool = True  # slice_gap_bytes between slices (§5)
    time_slice_ps: int = ms(10)  # default 10 ms slice (§5)
    preemption_timeout_ps: int = ms(100)  # forcible reset after this (§4.2)
    # Timing-preserving burst coalescing for streaming DMA (see DESIGN.md
    # "Performance architecture").  Read only by the pass-through builder;
    # timing-equivalent by construction and verified by
    # tests/test_fastpath_equivalence.py.  ``False`` selects the per-line
    # reference path — the oracle it is checked against.
    fast_path: bool = True

    # ---- clocks ------------------------------------------------------------
    interconnect_mhz: ClassVar[float] = 400.0  # Arria 10 shell clock (§6.1)

    # ---- system memory -------------------------------------------------------
    dram_bytes: ClassVar[int] = 188 * GB  # testbed DRAM (§6.1)
    dram_latency_ps: ClassVar[int] = ns(60)
    dram_bandwidth_gbps: ClassVar[float] = 64.0

    # ---- links ------------------------------------------------------------------
    # One UPI + two PCIe 3.0 links (§6.1).  Latencies are back-solved from
    # Fig. 4a: pass-through LinkedList ~410 ns (UPI) / ~905 ns (PCIe) and
    # OPTIMUS adds ~100 ns of mux tree, giving the paper's 124.2% / 111.1%.
    # Raw wire rates; 16-byte headers on 64-byte payloads make the usable
    # read goodput ~(64/80) of these, i.e. ~13.9 GB/s aggregate — where a
    # pass-through MemBench lands (its OPTIMUS counterpart is then capped
    # at 12.8 GB/s by the one-request-per-two-cycles issue limit, ~90%).
    upi_bandwidth_gbps: ClassVar[float] = 8.6
    upi_latency_ps: ClassVar[int] = ns(160)
    pcie_bandwidth_gbps: ClassVar[float] = 4.4
    pcie_latency_ps: ClassVar[int] = ns(405)
    pcie_link_count: ClassVar[int] = 2

    # ---- IOMMU ------------------------------------------------------------------
    iotlb_hit_ps: ClassVar[int] = ns(2.5)  # one 400 MHz cycle
    iotlb_speculative_ps: ClassVar[int] = ns(1)
    walker_occupancy_ps: ClassVar[int] = ns(20)

    # ---- hardware monitor ----------------------------------------------------------
    mux_tree_radix: ClassVar[int] = 2  # three-level binary tree (§5)
    mux_level_latency_ps: ClassVar[int] = ns(33)  # "each added layer ... ~33 ns" (§6.3)
    # "the accelerator can only transmit a memory request packet every two
    # cycles" under OPTIMUS (§6.3); pass-through issues every cycle.
    optimus_issue_interval_cycles: ClassVar[int] = 2
    passthrough_issue_interval_cycles: ClassVar[int] = 1
    auditor_latency_ps: ClassVar[int] = ns(2.5)  # single-cycle GVA<->IOVA offset add (§4.1)
    shell_latency_ps: ClassVar[int] = ns(5)
    # The shell accepts requests from the tree's root only as fast as the
    # interconnect can carry them; this makes the root's round-robin the
    # operative bandwidth allocator (§6.7's fairness guarantees).
    shell_accept_gbps: ClassVar[float] = 13.5

    # ---- page table slicing -----------------------------------------------------------
    slice_bytes: ClassVar[int] = DEFAULT_SLICE_BYTES  # 64 GB per virtual accelerator (§5)
    slice_gap_bytes: ClassVar[int] = DEFAULT_SLICE_GAP_BYTES  # 128 MB IOTLB mitigation (§5)

    # ---- MMIO / control plane -----------------------------------------------------------
    # Host-initiated MMIO: an uncached PCIe access takes ~0.3 us natively;
    # trap-and-emulate through the hypervisor costs ~1.2 us more (§2.1's
    # "control plane operations become more expensive due to hypervisor
    # trap-and-emulate" — this ratio produces Fig. 1's virtualized gap).
    mmio_native_ps: ClassVar[int] = ns(300)
    mmio_trap_ps: ClassVar[int] = ns(1200)

    # ---- temporal multiplexing -------------------------------------------------------------
    preempt_protocol_ps: ClassVar[int] = us(30)  # drain + control-register handshake
    resume_protocol_ps: ClassVar[int] = us(12)  # resume command + status poll
    state_save_bandwidth_gbps: ClassVar[float] = 4.5  # accelerator state (de)serialization

    # ---- spatial multiplexing ---------------------------------------------------------------
    max_physical_accelerators: ClassVar[int] = 8  # synthesis limit at 400 MHz (§5)

    # ---- request granularity ----------------------------------------------------------------
    # The CCI-P interface moves whole cache lines, so all byte math
    # derives from this one constant.
    cache_line: ClassVar[int] = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.page_size not in (PAGE_SIZE_4K, PAGE_SIZE_2M):
            raise ConfigurationError("page_size must be 4 KB or 2 MB")

    # -- convenience ------------------------------------------------------------

    def copy(self, **overrides: object) -> "PlatformParams":
        """A modified copy — experiments never mutate shared params."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]
