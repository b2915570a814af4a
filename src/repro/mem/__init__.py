"""Memory system: sparse DRAM, page tables, MMU, IOMMU, allocators."""

from repro.mem.address import (
    DEFAULT_SLICE_BYTES,
    DEFAULT_SLICE_GAP_BYTES,
    GB,
    IOVA_BITS,
    KB,
    MB,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    TB,
    align_down,
    align_up,
    format_size,
    is_aligned,
    page_offset,
    parse_size,
)
from repro.mem.allocator import FrameAllocator, RegionAllocator
from repro.mem.dram import Dram
from repro.mem.iommu import IOTLB_ENTRIES, Iommu, Iotlb
from repro.mem.mmu import GuestMmu
from repro.mem.page_table import PageTable, PageTableEntry
from repro.mem.sparse import SparseMemory

__all__ = [
    "DEFAULT_SLICE_BYTES",
    "DEFAULT_SLICE_GAP_BYTES",
    "Dram",
    "FrameAllocator",
    "GB",
    "GuestMmu",
    "IOTLB_ENTRIES",
    "IOVA_BITS",
    "Iommu",
    "Iotlb",
    "KB",
    "MB",
    "PAGE_SIZE_2M",
    "PAGE_SIZE_4K",
    "PageTable",
    "PageTableEntry",
    "RegionAllocator",
    "SparseMemory",
    "TB",
    "align_down",
    "align_up",
    "format_size",
    "is_aligned",
    "page_offset",
    "parse_size",
]
