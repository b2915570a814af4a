"""End-to-end functional tests of the benchmark accelerators' internals.

Each test runs the real accelerator model through the full OPTIMUS stack
(guest library -> hypervisor -> auditor -> mux tree -> IOMMU -> DRAM) and
checks what the job computed.  Every real-world job's guest-visible
output is checked against its kernel reference in seven environments by
``tests/test_job_state.py``.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.accel import (
    BtcJob,
    FirJob,
    GauJob,
    GrnJob,
    LinkedListJob,
    Md5Job,
    MemBenchJob,
    RsdJob,
    SblJob,
    SsspJob,
    SwJob,
    build_list_image,
    make_job,
    profile_of,
    table1_rows,
)
from repro.accel.filters import MAX_ROW_PIXELS
from repro.accel.linkedlist import ADDR_MODE_PATTERN, ADDR_MODE_POINTERS
from repro.accel.membench import MODE_MIXED
from repro.accel.streaming import REG_DST, REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.errors import ConfigurationError
from repro.guest import GuestAccelerator
from repro.hv import OptimusHypervisor
from repro.kernels import (
    CsrGraph,
    GaussianGenerator,
    ReedSolomon,
    best_score,
    fir_filter,
    gaussian_blur,
    lowpass_taps,
    mine,
    random_graph,
    sssp_dijkstra,
)
from repro.kernels.bitcoin import BlockHeader, easy_target
from repro.mem import MB
from repro.platform import PlatformParams, build_platform
from repro.sim.clock import ms


def run_job(job, buffers, registers, window_mb=32, limit_ms=2000):
    """Boot a 1-accelerator OPTIMUS stack, run one job, return its handle."""
    platform = build_platform(PlatformParams(), n_accelerators=1)
    hv = OptimusHypervisor(platform)
    vm = hv.create_vm("tenant")
    vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=window_mb * MB)
    allocated = {}
    for name, content_or_size in buffers.items():
        if isinstance(content_or_size, int):
            gva = handle.alloc_buffer(content_or_size)
        else:
            gva = handle.alloc_buffer(len(content_or_size))
            handle.write_buffer(gva, content_or_size)
        allocated[name] = gva
    for reg, value in registers(allocated).items():
        handle.mmio_write(reg, value)
    done = handle.start()
    platform.engine.run_until(done, limit_ps=ms(limit_ms))
    assert job.done
    return handle, allocated


class TestMd5:
    def test_chunk_digests_match_reference(self):
        data = b"\xAB" * 8192  # two 4 KB chunks
        job = Md5Job(functional=True)
        handle, bufs = run_job(
            job,
            {"src": data, "dst": 4096},
            lambda b: {REG_SRC: b["src"], REG_DST: b["dst"], REG_LEN: len(data)},
        )
        # One 64-byte record per chunk: the digest, zero-padded to a line.
        records = handle.read_buffer(bufs["dst"], 128)
        assert records[:16] == hashlib.md5(data[:4096]).digest()
        assert records[64:80] == hashlib.md5(data[4096:]).digest()
        assert records[16:64] == records[80:] == bytes(48)


class TestFir:
    def test_tiled_filtering_equals_whole_buffer(self):
        rng = np.random.RandomState(7)
        samples = rng.randint(-20000, 20000, size=4096, dtype=np.int64).astype(np.int16)
        data = samples.tobytes()
        job = FirJob(functional=True)
        handle, bufs = run_job(
            job,
            {"src": data, "dst": len(data)},
            lambda b: {REG_SRC: b["src"], REG_DST: b["dst"], REG_LEN: len(data)},
        )
        out = np.frombuffer(handle.read_buffer(bufs["dst"], len(data)), dtype=np.int16)
        expected = fir_filter(samples, lowpass_taps(16))
        assert np.array_equal(out, expected)

    def test_filter_state_is_built_by_the_first_tile(self):
        job = FirJob(functional=True)
        # Unrun, the job holds no numpy state: it checkpoints its cursor
        # and 15 samples of zero history.
        assert job.taps is None and job.save_state() == bytes(8 + 2 * 15)
        samples = np.random.RandomState(9).randint(
            -20000, 20000, size=5000, dtype=np.int64
        ).astype(np.int16)
        data = samples.tobytes()
        tile = FirJob.tile_lines * 64
        assert len(data) > 2 * tile
        out = b"".join(
            job.transform(data[start:start + tile], start)
            for start in range(0, len(data), tile)
        )
        assert out == fir_filter(samples, lowpass_taps(16)).tobytes()


class TestGrn:
    def test_generates_deterministic_gaussians(self):
        n_bytes = 4096
        job = GrnJob(functional=True)
        handle, bufs = run_job(
            job,
            {"dst": n_bytes},
            lambda b: {REG_DST: b["dst"], REG_LEN: n_bytes},
        )
        out = np.frombuffer(handle.read_buffer(bufs["dst"], n_bytes), dtype=np.float32)
        expected = GaussianGenerator().block(n_bytes // 4)
        assert np.array_equal(out, expected)
        assert abs(float(out.mean())) < 0.2


class TestRsd:
    def test_decodes_corrupted_codewords(self):
        rs = ReedSolomon(255, 223)
        messages = [bytes((i * 31 + j) % 256 for j in range(223)) for i in range(8)]
        records = b""
        for i, message in enumerate(messages):
            codeword = rs.encode(message)
            corrupted = rs.corrupt(codeword, [(i * 17 + k * 11) % 255 for k in range(5)])
            records += corrupted + bytes(256 - 255)
        job = RsdJob(functional=True)
        handle, bufs = run_job(
            job,
            {"src": records, "dst": len(records)},
            lambda b: {REG_SRC: b["src"], REG_DST: b["dst"], REG_LEN: len(records)},
        )
        out = handle.read_buffer(bufs["dst"], len(records))
        for i, message in enumerate(messages):
            assert out[i * 256 : i * 256 + 223] == message
        assert job.blocks_corrected == 8
        assert job.blocks_failed == 0


class TestSw:
    def test_scores_match_reference(self):
        from repro.accel.sw import decode_sequence

        rng = np.random.RandomState(11)
        records = b""
        raw_records = []
        for _ in range(4):
            rec = bytes(rng.randint(1, 256, size=60, dtype=np.int64).tolist()) + bytes(4)
            raw_records.append(rec)
            records += rec
        job = SwJob(functional=True)
        handle, bufs = run_job(
            job,
            {"src": records, "dst": 64},
            lambda b: {REG_SRC: b["src"], REG_DST: b["dst"], REG_LEN: len(records)},
        )
        expected = [best_score(job.query, decode_sequence(r[:60])) for r in raw_records]
        assert job.scores == expected
        out = handle.read_buffer(bufs["dst"], 16)
        assert list(struct.unpack("<4I", out)) == expected


class TestImageFilters:
    def test_gaussian_blur_single_tile(self):
        rng = np.random.RandomState(5)
        image = rng.randint(0, 256, size=(16, 64), dtype=np.int64).astype(np.uint8)
        data = image.tobytes()
        job = GauJob(functional=True)
        job.row_pixels = 64
        handle, bufs = run_job(
            job,
            {"src": data, "dst": len(data)},
            lambda b: {
                REG_SRC: b["src"],
                REG_DST: b["dst"],
                REG_LEN: len(data),
                REG_PARAM0: 64,
            },
        )
        out = np.frombuffer(handle.read_buffer(bufs["dst"], len(data)), dtype=np.uint8)
        out = out.reshape(16, 64)
        expected = gaussian_blur(image)
        # Interior rows of each tile match the reference exactly; tile
        # boundary rows lack one row of lookahead (line-buffer behaviour).
        matches = sum(np.array_equal(out[r], expected[r]) for r in range(16))
        assert matches >= 12

    def test_rows_wider_than_the_line_buffers_are_rejected(self):
        # Two rows of at most MAX_ROW_PIXELS are the declared line buffers.
        job = GauJob(functional=True)
        job.configure({REG_PARAM0: MAX_ROW_PIXELS + 64})
        with pytest.raises(ConfigurationError):
            job.transform(bytes(2 * (MAX_ROW_PIXELS + 64)), 0)

    def test_sobel_runs_and_flags_edges(self):
        image = np.zeros((16, 64), dtype=np.uint8)
        image[:, 32:] = 255
        job = SblJob(functional=True)
        handle, bufs = run_job(
            job,
            {"src": image.tobytes(), "dst": image.size},
            lambda b: {
                REG_SRC: b["src"],
                REG_DST: b["dst"],
                REG_LEN: image.size,
                REG_PARAM0: 64,
            },
        )
        out = np.frombuffer(handle.read_buffer(bufs["dst"], image.size), dtype=np.uint8)
        out = out.reshape(16, 64)
        assert out[:, 31:33].max() == 255  # the edge is detected
        assert out[:, :16].max() == 0  # flat regions are quiet


class TestSssp:
    def test_distances_match_dijkstra(self):
        graph = random_graph(120, 700, seed=9)
        image = graph.serialize()
        job = SsspJob(functional=True)
        handle, bufs = run_job(
            job,
            {"graph": image, "dist": 4 * graph.n_vertices + 64},
            lambda b: {
                REG_SRC: b["graph"],
                REG_DST: b["dist"],
                REG_PARAM0: graph.n_vertices,
                REG_PARAM1: 0,
            },
        )
        expected = sssp_dijkstra(graph, 0)
        out = np.frombuffer(
            handle.read_buffer(bufs["dist"], 4 * graph.n_vertices), dtype="<u4"
        )
        assert np.array_equal(out, expected)
        assert job.edges_relaxed > 0

    def test_pattern_mode_matches_functional_structure(self):
        graph = random_graph(80, 400, seed=10)
        job = SsspJob(functional=False, graph=graph)
        run_job(
            job,
            {"graph": graph.serialized_bytes, "dist": 4 * graph.n_vertices + 64},
            lambda b: {
                REG_SRC: b["graph"],
                REG_DST: b["dist"],
                REG_PARAM0: graph.n_vertices,
                REG_PARAM1: 0,
            },
        )
        # Same relaxation count as the reference Bellman-Ford trace.
        expected = sssp_dijkstra(graph, 0)
        dist = np.minimum(job.distances, int(0xFFFFFFFF)).astype(np.uint32)
        assert np.array_equal(dist, expected)


class TestBtc:
    def test_finds_the_same_nonce_as_reference(self):
        header = BlockHeader(
            version=2,
            prev_hash=bytes(32),
            merkle_root=bytes(range(32)),
            timestamp=1_600_000_000,
            bits=0x1D00FFFF,
        )
        zero_bits = 10
        reference = mine(header, easy_target(zero_bits), max_attempts=1 << 16)
        assert reference is not None
        header_bytes = header.serialize(0) + bytes(48)  # pad to 2 lines
        job = BtcJob(functional=True)
        handle, bufs = run_job(
            job,
            {"hdr": header_bytes, "out": 64},
            lambda b: {
                REG_SRC: b["hdr"],
                REG_DST: b["out"],
                REG_PARAM0: zero_bits,
                REG_PARAM1: 1 << 16,
            },
            limit_ms=5000,
        )
        assert job.found_nonce == reference
        stored = struct.unpack("<q", handle.read_buffer(bufs["out"], 8))[0]
        assert stored == reference


class TestMemBench:
    def test_mixed_mode_completes_target_ops(self):
        job = MemBenchJob(functional=True)
        run_job(
            job,
            {"ws": 4 * MB},
            lambda b: {
                REG_SRC: b["ws"],
                REG_LEN: 4 * MB,
                REG_PARAM0: MODE_MIXED,
                REG_PARAM1: 2000,
            },
        )
        assert job.ops_done == 2000
        assert job.bytes_done == 2000 * 64

    def test_address_stream_stays_in_working_set(self):
        job = MemBenchJob()
        offsets = {job._next_offset(2 * MB) for _ in range(1000)}
        assert all(0 <= off < 2 * MB and off % 64 == 0 for off in offsets)
        assert len(offsets) > 500  # actually random


class TestLinkedList:
    def test_real_pointer_chase_visits_list_order(self):
        working_set = 1 * MB
        image, order = build_list_image(working_set, seed=4)
        job = LinkedListJob(functional=True)
        hops = 500
        handle, bufs = run_job(
            job,
            {"list": image},
            lambda b: {
                REG_SRC: b["list"],
                REG_LEN: working_set,
                REG_PARAM0: ADDR_MODE_POINTERS,
                REG_PARAM1: hops,
            },
        )
        assert job.hops_done == hops
        # Payload field stores the position index: the sum proves we really
        # followed the chain in order (positions 0..hops-1).
        assert job.payload_sum == sum(range(hops))
        assert job.latency.count == hops
        assert job.latency.mean_ns() > 300  # every hop pays a round trip

    def test_pattern_mode_walks_without_data(self):
        job = LinkedListJob(functional=False)
        run_job(
            job,
            {"ws": 2 * MB},
            lambda b: {
                REG_SRC: b["ws"],
                REG_LEN: 2 * MB,
                REG_PARAM0: ADDR_MODE_PATTERN,
                REG_PARAM1: 300,
            },
        )
        assert job.hops_done == 300


class TestRegistry:
    def test_table1_catalog_complete(self):
        rows = table1_rows()
        assert len(rows) == 14
        by_app = {row["app"]: row for row in rows}
        assert by_app["AES"]["loc"] == 1965
        assert by_app["RSD"]["loc"] == 5324
        assert sum(row["loc"] for row in rows) > 25_000
        # The microbenchmarks run at the full 400 MHz shell clock; complex
        # circuits synthesize at 100-200 MHz (Table 1).
        for app in ("MB", "LL"):
            assert by_app[app]["freq_mhz"] == 400.0
        for app in ("MD5", "SW", "BTC"):
            assert by_app[app]["freq_mhz"] == 100.0

    def test_make_job_instantiates_each_benchmark(self):
        for name in ("AES", "MD5", "SHA", "FIR", "GRN", "RSD", "SW", "GAU",
                     "GRS", "SBL", "SSSP", "BTC", "MB", "LL"):
            job = make_job(name, functional=False)
            assert job.profile.name == name

    def test_profiles_match_table2_pt_column(self):
        assert profile_of("AES").footprint.alm_pct == pytest.approx(3.62)
        assert profile_of("MB").footprint.alm_pct == pytest.approx(0.83)
        assert profile_of("LL").footprint.alm_pct == pytest.approx(0.15)
