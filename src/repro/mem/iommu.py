"""The IOMMU: a single IO page table, an IOTLB, and a page walker.

This models HARP's FPGA-resident ("soft") IOMMU, whose quirks drive much of
the paper's evaluation:

* **One IO page table.**  Unlike the MMU (one EPT per guest), the IOMMU
  walks a single table — the scarcity that motivates page table slicing.

* **512-entry, direct-mapped IOTLB.**  Per §5 ("IOTLB Conflict Mitigation"),
  the set index is the 9 bits immediately above the page offset: bits 21-29
  for 2 MB pages, bits 12-20 for 4 KB pages, one entry per set.  Two pages
  conflict iff their page numbers are congruent mod 512 — which is why
  contiguous 64 GB slices (whose bases are all congruent to set 0) thrash,
  and why a 128 MB gap (64 pages) between slices skews each accelerator
  into its own 64-set region.

* **Page walks cross the interconnect.**  HARP's IOMMU is not integrated
  into the CPU; every miss fetches page-table entries from system memory
  over UPI/PCIe (§6.4).  Walks therefore consume real link bandwidth and
  real round-trip latency in this model, which is what makes aggregate
  throughput collapse once the working set exceeds IOTLB reach (Fig. 6)
  and latency climb for 4 GB+ working sets (Fig. 5).

* **Speculative same-region pipelining.**  §6.5 reports unusually high
  read throughput when a single accelerator stays within one 2 MB region;
  the authors attribute it to a speculative IOTLB pipeline optimization.
  We model it phenomenologically: consecutive translations from the same
  master within one 2 MB region take a fast path, and
  :meth:`in_speculative_streak` lets the DMA engine issue back-to-back
  requests (see :class:`repro.fpga.afu.DmaEngine`).  The model is gated by
  ``params.speculative_region_opt`` so the effect can be ablated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ProtectionFault, TranslationFault
from repro.mem.address import PAGE_SIZE_2M, page_shift_for
from repro.mem.page_table import PageTable
from repro.sim.engine import Engine
from repro.sim.packet import CACHE_LINE_BYTES

#: Number of IOTLB entries (both 4 KB and 2 MB modes; §5).
IOTLB_ENTRIES = 512
#: log2 of entries — 9 set-index bits.
IOTLB_INDEX_BITS = 9

#: 2 MB region granularity of the speculative pipeline optimization.
SPECULATIVE_REGION_SHIFT = 21


@dataclass
class IotlbStats:
    hits: int = 0
    misses: int = 0
    speculative_hits: int = 0
    evictions: int = 0
    #: Instrument-protocol name (registrable in a MetricRegistry).
    name: str = "iommu.iotlb"

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.speculative_hits

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.speculative_hits = 0
        self.evictions = 0

    def summary(self) -> Optional[Dict[str, float]]:
        """Uniform-protocol summary; ``None`` before any access."""
        if not self.accesses and not self.evictions:
            return None
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "speculative_hits": float(self.speculative_hits),
            "evictions": float(self.evictions),
            "miss_ratio": self.miss_ratio,
        }


class Iotlb:
    """Direct-mapped translation cache, set-indexed by low page-number bits."""

    def __init__(self, page_size: int, entries: int = IOTLB_ENTRIES) -> None:
        self.page_shift = page_shift_for(page_size)
        self.entries = entries
        self.index_mask = entries - 1
        self._tags: List[Optional[int]] = [None] * entries
        self._frames: List[int] = [0] * entries
        self.stats = IotlbStats()

    def set_index(self, iova: int) -> int:
        """The set an IOVA maps to: page-number bits just above the offset."""
        return (iova >> self.page_shift) & self.index_mask

    def lookup(self, iova: int) -> Optional[int]:
        """Return the cached frame number, or None on a miss."""
        vpn = iova >> self.page_shift
        index = vpn & self.index_mask
        if self._tags[index] == vpn:
            self.stats.hits += 1
            return self._frames[index]
        self.stats.misses += 1
        return None

    def install(self, iova: int, frame: int) -> None:
        vpn = iova >> self.page_shift
        index = vpn & self.index_mask
        if self._tags[index] is not None and self._tags[index] != vpn:
            self.stats.evictions += 1
        self._tags[index] = vpn
        self._frames[index] = frame

    def resident_sets(self) -> int:
        return sum(1 for tag in self._tags if tag is not None)


#: Signature of the function the platform provides for walk round trips:
#: ``walk_transfer(wire_bytes, on_done)`` issues a read of the page-table
#: data across the interconnect and calls ``on_done()`` when it returns.
WalkTransfer = Callable[[int, Callable[[], None]], None]


class Iommu:
    """Translates IOVAs to HPAs for every accelerator DMA."""

    def __init__(
        self,
        engine: Engine,
        *,
        page_size: int = PAGE_SIZE_2M,
        hit_latency_ps: int = 2_500,
        speculative_latency_ps: int = 1_000,
        walker_occupancy_ps: int = 20_000,
        walk_transfer: Optional[WalkTransfer] = None,
        speculative_region_opt: bool = True,
    ) -> None:
        self.engine = engine
        self.page_size = page_size
        self.page_table = PageTable(page_size, name="iopt")
        self.iotlb = Iotlb(page_size)
        self.hit_latency_ps = hit_latency_ps
        self.speculative_latency_ps = speculative_latency_ps
        self.walker_occupancy_ps = walker_occupancy_ps
        self.walk_transfer = walk_transfer
        self.speculative_region_opt = speculative_region_opt
        self._walker_free_at_ps = 0
        self._last_master: Optional[int] = None
        self._last_region: Optional[int] = None
        self._spec_streak = 0
        self.faults: Dict[str, int] = {"translation": 0, "protection": 0}
        # Tracing: only miss-side events (misses, walks, evictions, faults)
        # are emitted — these are identical between the simulator's fast
        # path and the reference path (a burst only commits on an IOTLB tag
        # hit, so miss traffic always takes the reference path).  Per-hit
        # events would differ between modes and are deliberately absent.
        self._trace = engine.trace
        if self._trace is not None:
            self._trace_tid_events = self._trace.thread("iommu.events")
            self._trace_tid_walker = self._trace.thread("iommu.walker")

    # -- speculative streak state ------------------------------------------

    def in_speculative_streak(self, master: Optional[int]) -> bool:
        """Whether the pipeline is streaming same-region hits for ``master``.

        The DMA engine consults this to model the back-to-back issue the
        speculation enables (§6.5's "unusually-high read throughput").
        """
        return (
            self.speculative_region_opt
            and self._spec_streak >= 8
            and self._last_master == master
        )

    # -- synchronous (functional) translation --------------------------------

    def translate_sync(self, iova: int, *, write: bool = False) -> int:
        """Pure functional translation (no timing); used for data movement."""
        return self.page_table.translate_cached(iova, write=write)

    # -- timed translation ----------------------------------------------------

    def translate_async(
        self,
        iova: int,
        *,
        write: bool,
        master: Optional[int],
        on_done: Callable[..., None],
        args: tuple = (),
    ) -> None:
        """Translate with modeled timing; ``on_done(hpa_or_None, *args)``.

        A ``None`` result means the translation faulted; the caller (the
        memory system) drops the DMA, as the real IOMMU would after logging
        a fault.  Faults are counted for the isolation experiments.
        """
        # Streak tracking is only observable while the §6.5 optimization is
        # enabled (the flag is fixed at construction), so skip it otherwise.
        speculative = False
        if self.speculative_region_opt:
            region = iova >> SPECULATIVE_REGION_SHIFT
            if self._last_master == master and self._last_region == region:
                speculative = True
                self._spec_streak += 1
            else:
                self._spec_streak = 0
            self._last_master = master
            self._last_region = region

        # Functional outcome first: faults short-circuit timing.
        try:
            hpa = self.page_table.translate_cached(iova, write=write)
        except (TranslationFault, ProtectionFault) as fault:
            kind = "translation" if isinstance(fault, TranslationFault) else "protection"
            self.faults[kind] += 1
            if self._trace is not None:
                self._trace.instant("iommu.fault", self.engine.now,
                                    tid=self._trace_tid_events, cat="iotlb",
                                    args={"kind": kind, "iova": iova})
            self.engine.call_after(self.hit_latency_ps, on_done, None, *args)
            return

        if speculative:
            self.iotlb.stats.speculative_hits += 1
            self.engine.call_after(self.speculative_latency_ps, on_done, hpa, *args)
            return

        # Iotlb.lookup, open-coded: the frame itself is not needed (the
        # functional translation above already produced the address).
        tlb = self.iotlb
        vpn = iova >> tlb.page_shift
        if tlb._tags[vpn & tlb.index_mask] == vpn:
            tlb.stats.hits += 1
            self.engine.call_after(self.hit_latency_ps, on_done, hpa, *args)
            return
        tlb.stats.misses += 1

        # Miss: serialize on the walker, then fetch PTEs over the wire.
        start = max(self.engine.now, self._walker_free_at_ps)
        self._walker_free_at_ps = start + self.walker_occupancy_ps
        if self._trace is not None:
            # The walker-occupancy window is known analytically at miss
            # time, so the span can be emitted eagerly (and the walker lane
            # never overlaps: occupancy intervals serialize by design).
            set_index = self.iotlb.set_index(iova)
            self._trace.instant("iotlb.miss", self.engine.now,
                                tid=self._trace_tid_events, cat="iotlb",
                                args={"set": set_index, "iova": iova})
            self._trace.complete("iotlb.walk", start, start + self.walker_occupancy_ps,
                                 tid=self._trace_tid_walker, cat="iotlb",
                                 args={"set": set_index})
        self.engine.call_at(
            start + self.walker_occupancy_ps, self._after_occupancy, iova, hpa, on_done, args
        )

    def _after_occupancy(
        self, iova: int, hpa: int, on_done: Callable[..., None], args: tuple
    ) -> None:
        # walk_transfer is looked up now, not at miss time: tests and the
        # memory system install it after construction.
        if self.walk_transfer is None:
            self._finish_walk(iova, hpa, on_done, args)
        else:
            self.walk_transfer(
                self.page_table.walk_levels * CACHE_LINE_BYTES,
                partial(self._finish_walk, iova, hpa, on_done, args),
            )

    def _finish_walk(
        self, iova: int, hpa: int, on_done: Callable[..., None], args: tuple
    ) -> None:
        if self._trace is not None:
            # Detect the conflict eviction the install is about to make.
            tlb = self.iotlb
            vpn = iova >> tlb.page_shift
            index = vpn & tlb.index_mask
            victim = tlb._tags[index]
            if victim is not None and victim != vpn:
                self._trace.instant("iotlb.evict", self.engine.now,
                                    tid=self._trace_tid_events, cat="iotlb",
                                    args={"set": index, "vpn": vpn,
                                          "victim_vpn": victim})
        self.iotlb.install(iova, hpa >> self.iotlb.page_shift)
        on_done(hpa, *args)

    # -- management (hypervisor-facing) ---------------------------------------

    def map(self, iova: int, hpa: int, *, writable: bool = True) -> None:
        """Insert an IOVA -> HPA mapping (shadow paging does this)."""
        self.page_table.map(iova, hpa, writable=writable, pinned=True, overwrite=True)

    def reset_stats(self) -> None:
        self.iotlb.stats.reset()
        self.faults = {"translation": 0, "protection": 0}
