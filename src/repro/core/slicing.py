"""Page table slicing: partitioning one IO virtual address space (§4.1, §5).

Only a single hardware page table is available to the FPGA in the IOMMU,
so OPTIMUS divides the 48-bit IO virtual address space into per-virtual-
accelerator *slices*.  A virtual accelerator whose guest DMA window starts
at GVA ``g`` and whose slice starts at IOVA ``i`` gets the offset ``i - g``
installed in the hardware monitor's offset table; its auditor then adds
the offset to every outgoing DMA in a single cycle.

The layout also encodes the paper's **IOTLB conflict mitigation** (§5):
with contiguous 64 GB slices every slice base is congruent to IOTLB set 0
(64 GB is a multiple of 512 x 2 MB), so the hot bottoms of all slices
fight over the same sets.  Inserting a 128 MB gap (64 huge pages) between
slices skews accelerator *k* into sets ``[64k, 64k + 64)`` — eight
accelerators exactly tile the 512 sets, giving each a 128 MB conflict-free
working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.mem.address import IOVA_SPACE_SIZE, MB
from repro.mem.iommu import IOTLB_ENTRIES


@dataclass(frozen=True)
class Slice:
    """One virtual accelerator's reserved region of IOVA space."""

    index: int
    iova_base: int
    size: int

    @property
    def iova_end(self) -> int:
        return self.iova_base + self.size

    def offset_for(self, gva_base: int) -> int:
        """The offset-table entry mapping ``[gva_base, gva_base+size)`` here."""
        return self.iova_base - gva_base


class SliceLayout:
    """Computes and validates the slice plan for a platform configuration."""

    def __init__(
        self,
        *,
        slice_bytes: int,
        gap_bytes: int,
        page_size: int,
    ) -> None:
        if slice_bytes <= 0:
            raise ConfigurationError("slice size must be positive")
        if gap_bytes < 0:
            raise ConfigurationError("slice gap must be non-negative")
        if slice_bytes % page_size or gap_bytes % page_size:
            raise ConfigurationError("slice geometry must be page-aligned")
        self.slice_bytes = slice_bytes
        self.gap_bytes = gap_bytes
        self.page_size = page_size

    @property
    def stride(self) -> int:
        return self.slice_bytes + self.gap_bytes

    def slice_for(self, index: int) -> Slice:
        if index < 0:
            raise ConfigurationError("slice index must be non-negative")
        base = index * self.stride
        if base + self.slice_bytes > IOVA_SPACE_SIZE:
            raise ConfigurationError(
                f"slice {index} exceeds the 48-bit IO virtual address space"
            )
        return Slice(index=index, iova_base=base, size=self.slice_bytes)

    def slices(self, count: int) -> List[Slice]:
        return [self.slice_for(i) for i in range(count)]

    @property
    def max_slices(self) -> int:
        """How many virtual accelerators the IOVA space can host."""
        return (IOVA_SPACE_SIZE - self.slice_bytes) // self.stride + 1

    # -- IOTLB geometry ------------------------------------------------------

    def iotlb_set_skew(self, index: int) -> int:
        """First IOTLB set used by slice ``index`` (its base page's set)."""
        base_page = self.slice_for(index).iova_base // self.page_size
        return base_page % IOTLB_ENTRIES

    def conflict_free_bytes_per_slice(self, n_slices: int) -> int:
        """Working set each slice can hold before cross-slice IOTLB conflicts.

        With the 128 MB gap and 8 slices this is exactly 128 MB — "each
        virtual accelerator's working set must exceed 128 MB before IOTLB
        conflicts potentially occur among accelerators" (§5).
        """
        if n_slices <= 0:
            raise ConfigurationError("need at least one slice")
        if n_slices == 1:
            return IOTLB_ENTRIES * self.page_size
        skews = sorted(self.iotlb_set_skew(i) for i in range(n_slices))
        min_gap = IOTLB_ENTRIES  # wrap-around distance between skews
        for i, skew in enumerate(skews):
            nxt = skews[(i + 1) % n_slices]
            gap = (nxt - skew) % IOTLB_ENTRIES
            if gap == 0:
                return 0  # two slices share a skew: immediate conflicts
            min_gap = min(min_gap, gap)
        return min_gap * self.page_size


def default_layout(page_size: int, *, mitigated: bool = True) -> SliceLayout:
    """The paper's layout: 64 GB slices, 128 MB gaps when mitigation is on."""
    from repro.mem.address import DEFAULT_SLICE_BYTES, DEFAULT_SLICE_GAP_BYTES

    return SliceLayout(
        slice_bytes=DEFAULT_SLICE_BYTES,
        gap_bytes=DEFAULT_SLICE_GAP_BYTES if mitigated else 0,
        page_size=page_size,
    )
