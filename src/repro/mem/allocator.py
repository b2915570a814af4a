"""First-fit region allocators.

Two allocation problems recur in the reproduction:

* the hypervisor hands out host-physical frames for pinned guest pages
  (:class:`FrameAllocator`), and
* the guest library manages DMA virtual memory inside its reserved 64 GB
  slice (:class:`RegionAllocator`) — the role played in the paper by a
  ported dlmalloc (§5, "a ported memory allocation library used to help
  manage DMA regions").

Both are deliberately simple (sorted free lists, first fit, coalescing on
free); determinism matters more than allocation speed here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.mem.address import align_up, is_aligned


class RegionAllocator:
    """First-fit allocator over ``[base, base + size)`` with coalescing."""

    def __init__(self, base: int, size: int, *, granule: int = 64) -> None:
        if size <= 0:
            raise ConfigurationError("allocator size must be positive")
        if granule <= 0 or granule & (granule - 1):
            raise ConfigurationError("granule must be a positive power of two")
        self.base = base
        self.size = size
        self.granule = granule
        # Free list of (start, length), sorted by start, never overlapping.
        self._free: List[Tuple[int, int]] = [(base, size)]
        self._live: dict[int, int] = {}

    def alloc(self, size: int, *, alignment: Optional[int] = None) -> int:
        """Allocate ``size`` bytes; returns the region's start address."""
        if size <= 0:
            raise ConfigurationError("allocation size must be positive")
        alignment = alignment or self.granule
        if alignment & (alignment - 1):
            raise ConfigurationError("alignment must be a power of two")
        size = align_up(size, self.granule)
        for index, (start, length) in enumerate(self._free):
            aligned = align_up(start, alignment)
            waste = aligned - start
            if length < waste + size:
                continue
            # Carve [aligned, aligned+size) out of this free block.
            del self._free[index]
            if waste:
                self._free.insert(index, (start, waste))
                index += 1
            tail = length - waste - size
            if tail:
                self._free.insert(index, (aligned + size, tail))
            self._live[aligned] = size
            return aligned
        raise MemoryError(f"out of space: cannot allocate {size:#x} bytes")

    def free(self, address: int) -> None:
        """Release a region previously returned by :meth:`alloc`."""
        size = self._live.pop(address, None)
        if size is None:
            raise ConfigurationError(f"free of unallocated address {address:#x}")
        self._free.append((address, size))
        self._free.sort()
        self._coalesce()

    def _coalesce(self) -> None:
        merged: List[Tuple[int, int]] = []
        for start, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                prev_start, prev_len = merged[-1]
                merged[-1] = (prev_start, prev_len + length)
            else:
                merged.append((start, length))
        self._free = merged

    def owns(self, address: int) -> bool:
        return self.base <= address < self.base + self.size


class FrameAllocator:
    """Hands out page-aligned physical frames from a fixed pool."""

    def __init__(self, base: int, size: int, page_size: int) -> None:
        if not is_aligned(base, page_size):
            raise ConfigurationError("frame pool base must be page-aligned")
        self.page_size = page_size
        self._inner = RegionAllocator(base, size, granule=page_size)

    def alloc_frame(self) -> int:
        return self._inner.alloc(self.page_size, alignment=self.page_size)
