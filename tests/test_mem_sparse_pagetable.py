"""Unit + property tests for sparse memory, page tables, MMU, allocators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtectionFault, TranslationFault
from repro.mem import (
    GB,
    GuestMmu,
    MB,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PageTable,
    RegionAllocator,
    SparseMemory,
    FrameAllocator,
    format_size,
    parse_size,
)


class TestSparseMemory:
    def test_unwritten_memory_reads_zero(self):
        mem = SparseMemory(1 * GB)
        assert mem.read(123456, 16) == bytes(16)
        assert mem.resident_bytes == 0

    def test_write_read_round_trip(self):
        mem = SparseMemory(1 * GB)
        mem.write(0x1000, b"hello world")
        assert mem.read(0x1000, 11) == b"hello world"

    def test_cross_frame_write(self):
        mem = SparseMemory(1 * GB)
        data = bytes(range(256)) * 64  # 16 KB spanning 4+ frames
        mem.write(4096 - 100, data)
        assert mem.read(4096 - 100, len(data)) == data

    def test_sparse_backing_is_lazy(self):
        mem = SparseMemory(100 * GB)
        mem.write(50 * GB, b"x")
        assert mem.resident_bytes == 4096  # one frame only

    def test_out_of_range_rejected(self):
        mem = SparseMemory(1024)
        with pytest.raises(ConfigurationError):
            mem.read(1020, 8)
        with pytest.raises(ConfigurationError):
            mem.write(-1, b"a")

    def test_u64_helpers(self):
        mem = SparseMemory(1 * MB)
        mem.write_u64(64, 0xDEADBEEFCAFEBABE)
        assert mem.read_u64(64) == 0xDEADBEEFCAFEBABE

    @given(
        offset=st.integers(min_value=0, max_value=65536 - 128),
        data=st.binary(min_size=1, max_size=128),
    )
    @settings(max_examples=50, deadline=None)
    def test_write_then_read_any_offset(self, offset, data):
        mem = SparseMemory(65536)
        mem.write(offset, data)
        assert mem.read(offset, len(data)) == data


class TestPageTable:
    def test_translate_preserves_offset(self):
        table = PageTable(PAGE_SIZE_2M)
        table.map(0, 10 * PAGE_SIZE_2M)
        assert table.translate(1234) == 10 * PAGE_SIZE_2M + 1234

    def test_unmapped_translation_faults(self):
        table = PageTable(PAGE_SIZE_4K)
        with pytest.raises(TranslationFault):
            table.translate(0x5000)

    def test_write_protection(self):
        table = PageTable(PAGE_SIZE_4K)
        table.map(0, PAGE_SIZE_4K, writable=False)
        table.translate(10)  # read is fine
        with pytest.raises(ProtectionFault):
            table.translate(10, write=True)

    def test_double_map_requires_overwrite(self):
        table = PageTable(PAGE_SIZE_4K)
        table.map(0, PAGE_SIZE_4K)
        with pytest.raises(ConfigurationError):
            table.map(0, 2 * PAGE_SIZE_4K)
        table.map(0, 2 * PAGE_SIZE_4K, overwrite=True)
        assert table.translate(0) == 2 * PAGE_SIZE_4K

    def test_unaligned_map_rejected(self):
        table = PageTable(PAGE_SIZE_2M)
        with pytest.raises(ConfigurationError):
            table.map(100, 0)

    def test_walk_levels(self):
        assert PageTable(PAGE_SIZE_4K).walk_levels == 4
        assert PageTable(PAGE_SIZE_2M).walk_levels == 3

    def test_accessed_dirty_bits(self):
        table = PageTable(PAGE_SIZE_4K)
        entry = table.map(0, PAGE_SIZE_4K)
        assert not entry.accessed and not entry.dirty
        table.translate(0)
        assert entry.accessed and not entry.dirty
        table.translate(0, write=True)
        assert entry.dirty

    def test_unmap_range(self):
        table = PageTable(PAGE_SIZE_4K)
        for i in range(10):
            table.map(i * PAGE_SIZE_4K, i * PAGE_SIZE_4K)
        removed = table.unmap_range(2 * PAGE_SIZE_4K, 3 * PAGE_SIZE_4K)
        assert removed == 3
        assert table.is_mapped(0)
        assert not table.is_mapped(3 * PAGE_SIZE_4K)

    def test_zero_length_unmap_removes_nothing(self):
        # Regression: the last page of an empty range used to be computed
        # as the first page, so a 0-byte unmap removed the page at virt.
        table = PageTable(PAGE_SIZE_4K)
        table.map(PAGE_SIZE_4K, 0)
        version = table.version
        assert table.unmap_range(PAGE_SIZE_4K, 0) == 0
        assert table.is_mapped(PAGE_SIZE_4K)
        assert table.version == version
        assert table.resident_in(PAGE_SIZE_4K, 0) == []

    def test_fill_range_maps_every_page_to_one_frame(self):
        table = PageTable(PAGE_SIZE_4K)
        table.map(PAGE_SIZE_4K, 7 * PAGE_SIZE_4K)
        version = table.version
        # 2.5 pages round up to 3, and an existing mapping is replaced.
        assert table.fill_range(0, 5 * PAGE_SIZE_4K // 2, 9 * PAGE_SIZE_4K) == 3
        assert table.version == version + 1
        entries = [entry for _virt, entry in table.mappings()]
        assert [e.frame for e in entries] == [9, 9, 9]
        assert all(e.pinned and e.writable and e.readable for e in entries)
        assert len({id(e) for e in entries}) == 3  # A/D bits stay per page
        assert table.fill_range(0, 0, 0) == 0
        with pytest.raises(ConfigurationError):
            table.fill_range(100, PAGE_SIZE_4K, 0)

    @given(
        vpns=st.lists(st.integers(min_value=0, max_value=64), unique=True, max_size=30),
        first=st.integers(min_value=0, max_value=64),
        pages=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_resident_in_and_unmap_range_match_a_scan(self, vpns, first, pages):
        # Both sides of the smaller-side scan agree with the plain filter.
        table = PageTable(PAGE_SIZE_4K)
        for vpn in vpns:
            table.map(vpn * PAGE_SIZE_4K, 0)
        expected = sorted(v for v in vpns if first <= v < first + pages)
        virt, size = first * PAGE_SIZE_4K, pages * PAGE_SIZE_4K
        assert table.resident_in(virt, size) == expected
        assert table.unmap_range(virt, size) == len(expected)
        assert sorted(virt >> 12 for virt, _ in table.mappings()) == sorted(
            set(vpns) - set(expected)
        )

    @given(vpns=st.lists(st.integers(min_value=0, max_value=2**20), unique=True, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_mappings_iterate_sorted_and_complete(self, vpns):
        table = PageTable(PAGE_SIZE_4K)
        for vpn in vpns:
            table.map(vpn * PAGE_SIZE_4K, vpn * PAGE_SIZE_4K)
        listed = [virt for virt, _ in table.mappings()]
        assert listed == sorted(vpn * PAGE_SIZE_4K for vpn in vpns)


class TestGuestMmu:
    def test_two_stage_translation(self):
        mmu = GuestMmu("vm0", PAGE_SIZE_2M)
        mmu.map_guest(0, 5 * PAGE_SIZE_2M)
        mmu.map_host(5 * PAGE_SIZE_2M, 42 * PAGE_SIZE_2M)
        assert mmu.gva_to_hpa(100) == 42 * PAGE_SIZE_2M + 100

    def test_missing_ept_stage_faults(self):
        mmu = GuestMmu("vm0", PAGE_SIZE_2M)
        mmu.map_guest(0, PAGE_SIZE_2M)
        with pytest.raises(TranslationFault):
            mmu.gva_to_hpa(0)
        assert mmu.try_gva_to_hpa(0) is None

    def test_resolve_for_pinning_pins_ept_entry(self):
        mmu = GuestMmu("vm0", PAGE_SIZE_2M)
        mmu.map_guest(0, PAGE_SIZE_2M)
        mmu.map_host(PAGE_SIZE_2M, 7 * PAGE_SIZE_2M)
        gpa, hpa = mmu.resolve_for_pinning(0)
        assert gpa == PAGE_SIZE_2M
        assert hpa == 7 * PAGE_SIZE_2M
        assert mmu.ept.pinned_pages() == 1


class TestAllocators:
    def test_first_fit_and_free_coalescing(self):
        alloc = RegionAllocator(0, 1024, granule=64)
        a = alloc.alloc(128)
        b = alloc.alloc(128)
        alloc.free(a)
        alloc.free(b)
        # After coalescing the whole space is allocatable again.
        c = alloc.alloc(1024)
        assert c == 0

    def test_alignment_honored(self):
        alloc = RegionAllocator(64, 4096, granule=64)
        address = alloc.alloc(100, alignment=512)
        assert address % 512 == 0

    def test_exhaustion_raises_memory_error(self):
        alloc = RegionAllocator(0, 256, granule=64)
        alloc.alloc(256)
        with pytest.raises(MemoryError):
            alloc.alloc(64)

    def test_double_free_rejected(self):
        alloc = RegionAllocator(0, 256, granule=64)
        a = alloc.alloc(64)
        alloc.free(a)
        with pytest.raises(ConfigurationError):
            alloc.free(a)

    def test_frame_allocator_hands_out_aligned_frames(self):
        frames = FrameAllocator(0, 16 * PAGE_SIZE_2M, PAGE_SIZE_2M)
        seen = {frames.alloc_frame() for _ in range(16)}
        assert len(seen) == 16
        assert all(f % PAGE_SIZE_2M == 0 for f in seen)
        with pytest.raises(MemoryError):
            frames.alloc_frame()

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=40)
    )
    @settings(max_examples=40, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        alloc = RegionAllocator(0, 1 * MB, granule=64)
        regions = []
        for size in sizes:
            start = alloc.alloc(size)
            for other_start, other_size in regions:
                assert start + size <= other_start or other_start + other_size <= start
            regions.append((start, ((size + 63) // 64) * 64))


class TestSizeFormatting:
    @pytest.mark.parametrize(
        "size,text",
        [(16 * MB, "16M"), (2 * GB, "2G"), (512 * 1024, "512K"), (8 * GB, "8G")],
    )
    def test_round_trip(self, size, text):
        assert format_size(size) == text
        assert parse_size(text) == size
