"""Page tables and page-table entries.

One :class:`PageTable` class serves three roles in the reproduction:

* the guest OS page table (GVA -> GPA),
* the extended page table the CPU provisions per guest (GPA -> HPA),
* the single IO page table the IOMMU walks (IOVA -> HPA) — the scarce
  resource that page table slicing partitions among virtual accelerators.

The table is logically a 4-level (4 KB) or 3-level (2 MB) radix tree over a
48-bit address space; we store it as a dict keyed by virtual page number
but expose :meth:`walk_levels` so timing models can charge the correct
number of memory touches per walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError, ProtectionFault, TranslationFault
from repro.mem.address import (
    IOVA_BITS,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    page_shift_for,
)


@dataclass
class PageTableEntry:
    """A leaf mapping: virtual page -> physical frame with permissions."""

    frame: int
    readable: bool = True
    writable: bool = True
    pinned: bool = False
    accessed: bool = False
    dirty: bool = False


class PageTable:
    """A single-page-size page table over a 48-bit virtual space."""

    def __init__(self, page_size: int = PAGE_SIZE_4K, name: str = "pt") -> None:
        self.page_size = page_size
        self.page_shift = page_shift_for(page_size)
        self.name = name
        self._entries: Dict[int, PageTableEntry] = {}
        #: Bumped on every structural change; memoized walks check it.
        self.version = 0
        self._memo: Dict[Tuple[int, bool], int] = {}
        self._memo_version = 0

    # -- structure ----------------------------------------------------------

    @property
    def walk_levels(self) -> int:
        """Radix levels a hardware walker touches for one translation.

        x86-style: 4 levels for 4 KB pages, 3 for 2 MB pages (the leaf lives
        one level higher).  The IOMMU charges one memory access per level.
        """
        return 4 if self.page_size == PAGE_SIZE_4K else 3

    # -- mapping ------------------------------------------------------------

    def vpn(self, address: int) -> int:
        if address < 0 or address >= (1 << IOVA_BITS):
            raise ConfigurationError(f"address {address:#x} outside 48-bit space")
        return address >> self.page_shift

    def map(
        self,
        virt: int,
        phys: int,
        *,
        readable: bool = True,
        writable: bool = True,
        pinned: bool = False,
        overwrite: bool = False,
    ) -> PageTableEntry:
        """Install a mapping for the page containing ``virt``.

        Both addresses must be page-aligned; remapping an existing page
        requires ``overwrite=True`` (the hypervisor uses this when a slice
        is recycled for a new virtual accelerator).
        """
        if virt & (self.page_size - 1):
            raise ConfigurationError(f"{self.name}: virt {virt:#x} not page-aligned")
        if phys & (self.page_size - 1):
            raise ConfigurationError(f"{self.name}: phys {phys:#x} not page-aligned")
        vpn = self.vpn(virt)
        if vpn in self._entries and not overwrite:
            raise ConfigurationError(f"{self.name}: page {virt:#x} already mapped")
        entry = PageTableEntry(
            frame=phys >> self.page_shift,
            readable=readable,
            writable=writable,
            pinned=pinned,
        )
        self._entries[vpn] = entry
        self.version += 1
        return entry

    def unmap_range(self, virt: int, size: int) -> int:
        """Remove every mapping whose page falls inside the range.

        The table is sparse, so the scan runs over whichever side is
        smaller: the page range or the resident entries.  Tearing down a
        multi-GB IOVA slice that holds a few hundred mappings (every
        tenant eviction does) is O(entries), not O(range) — the fleet
        serving loop's hottest path before this bound existed.
        """
        first = self.vpn(virt)
        last = self.vpn(virt + max(size - 1, 0))
        removed = 0
        entries = self._entries
        if last - first + 1 > len(entries):
            doomed = [vpn for vpn in entries if first <= vpn <= last]
            for vpn in doomed:
                del entries[vpn]
            removed = len(doomed)
        else:
            for vpn in range(first, last + 1):
                if entries.pop(vpn, None) is not None:
                    removed += 1
        if removed:
            self.version += 1
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self.version += 1

    # -- lookup -------------------------------------------------------------

    def lookup(self, address: int) -> Optional[PageTableEntry]:
        """The entry covering ``address``, or None."""
        return self._entries.get(self.vpn(address))

    def translate(self, address: int, *, write: bool = False) -> int:
        """Translate one address, enforcing permissions and setting A/D bits."""
        entry = self.lookup(address)
        if entry is None:
            raise TranslationFault(address, self.name, "no mapping")
        if write and not entry.writable:
            raise ProtectionFault(address, "write", self.name)
        if not write and not entry.readable:
            raise ProtectionFault(address, "read", self.name)
        entry.accessed = True
        if write:
            entry.dirty = True
        offset = address & (self.page_size - 1)
        return (entry.frame << self.page_shift) | offset

    def translate_cached(self, address: int, *, write: bool = False) -> int:
        """Memoized :meth:`translate` — identical results and side effects.

        The walk over a radix tree is a pure function of the table
        contents, so its result is cached per ``(page, access type)`` and
        the whole cache is dropped whenever :attr:`version` changes (map,
        unmap, clear).  The first call per page goes through
        :meth:`translate`, which also sets the A/D bits; repeated calls
        would only re-set the same bits, so skipping them is unobservable.
        Faults are never cached.
        """
        if self._memo_version != self.version:
            self._memo.clear()
            self._memo_version = self.version
        # The raw shift skips vpn()'s range check: an out-of-range address
        # can never be memoized (its first call faults in translate()), so
        # the miss path below still raises exactly as before.
        vpn = address >> self.page_shift
        offset = address & (self.page_size - 1)
        frame_base = self._memo.get((vpn, write))
        if frame_base is None:
            frame_base = self.translate(address, write=write) - offset
            self._memo[(vpn, write)] = frame_base
        return frame_base | offset

    def is_mapped(self, address: int) -> bool:
        return self.vpn(address) in self._entries

    def mappings(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Iterate ``(virtual_page_base_address, entry)`` pairs."""
        for vpn in sorted(self._entries):
            yield vpn << self.page_shift, self._entries[vpn]

    def pinned_pages(self) -> int:
        return sum(1 for entry in self._entries.values() if entry.pinned)
