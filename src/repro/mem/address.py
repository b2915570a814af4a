"""Address-space constants and helpers.

The platform follows the paper's layout: a 48-bit IO virtual address space,
4 KB base pages, 2 MB huge pages, and 64 B cache lines.  Helpers here are
pure functions shared by the MMU, IOMMU, page-table, and slicing code.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

#: 4 KB base pages.
PAGE_SHIFT_4K = 12
PAGE_SIZE_4K = 1 << PAGE_SHIFT_4K

#: 2 MB huge pages (the paper's default for DMA memory, §5 "Huge Pages").
PAGE_SHIFT_2M = 21
PAGE_SIZE_2M = 1 << PAGE_SHIFT_2M

#: The IO virtual address space is 48 bits wide (§5 "Page Table Slicing").
IOVA_BITS = 48
IOVA_SPACE_SIZE = 1 << IOVA_BITS

#: Default page-table-slice size: 64 GB per virtual accelerator (§5).
DEFAULT_SLICE_BYTES = 64 * GB

#: Extra gap between slices for IOTLB conflict mitigation: 128 MB (§5).
DEFAULT_SLICE_GAP_BYTES = 128 * MB

CACHE_LINE_SHIFT = 6
CACHE_LINE_BYTES = 1 << CACHE_LINE_SHIFT


def page_shift_for(page_size: int) -> int:
    """Return log2(page_size), validating that it is a supported size."""
    if page_size == PAGE_SIZE_4K:
        return PAGE_SHIFT_4K
    if page_size == PAGE_SIZE_2M:
        return PAGE_SHIFT_2M
    raise ConfigurationError(f"unsupported page size {page_size} (use 4 KB or 2 MB)")


def align_down(address: int, alignment: int) -> int:
    return address & ~(alignment - 1)


def align_up(address: int, alignment: int) -> int:
    return (address + alignment - 1) & ~(alignment - 1)


def is_aligned(address: int, alignment: int) -> bool:
    return address & (alignment - 1) == 0


def page_offset(address: int, page_size: int) -> int:
    return address & (page_size - 1)


def format_size(size: int) -> str:
    """Human-readable size string used in experiment tables (16M, 2G, ...)."""
    for unit, factor in (("G", GB), ("M", MB), ("K", KB)):
        if size >= factor and size % factor == 0:
            return f"{size // factor}{unit}"
    return str(size)


def parse_size(text: str) -> int:
    """Inverse of :func:`format_size` — accepts '512K', '16M', '2G', '8G'."""
    text = text.strip().upper()
    multipliers = {"K": KB, "M": MB, "G": GB, "T": TB}
    if text and text[-1] in multipliers:
        return int(text[:-1]) * multipliers[text[-1]]
    return int(text)
