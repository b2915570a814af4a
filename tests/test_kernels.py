"""Functional tests for the pure-algorithm kernels, against references."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    BlockHeader,
    CsrGraph,
    DecodeError,
    GaussianGenerator,
    ReedSolomon,
    Sha512,
    align,
    best_score,
    easy_target,
    encrypt_block,
    encrypt_ecb,
    fir_filter,
    gaussian_blur,
    grayscale,
    hash_value,
    lowpass_taps,
    meets_target,
    mine,
    random_graph,
    sha512_bytes,
    sobel,
    sssp_bellman_ford,
    sssp_dijkstra,
)
from repro.kernels.aes128 import ROUNDS, expand_key, tables


def textbook_encrypt_block(key, block):
    """FIPS-197 one block at a time, round function by round function.

    The oracle for the kernel, which runs each round over every block of
    the buffer at once.  It shares only the S-box, the multiply-by-x table
    and the key schedule, which the FIPS-197 vectors check.
    """
    sbox, xtime, _xor = tables()
    round_keys = expand_key(key)
    state = bytearray(block)

    def sub_bytes():
        for i, b in enumerate(state):
            state[i] = sbox[b]

    def shift_rows():
        # State is column-major: byte (row, col) lives at col*4 + row.
        for row in range(1, 4):
            old = [state[col * 4 + row] for col in range(4)]
            for col in range(4):
                state[col * 4 + row] = old[(col + row) % 4]

    def mix_columns():
        for col in range(4):
            a = state[col * 4 : col * 4 + 4]
            t = a[0] ^ a[1] ^ a[2] ^ a[3]
            u = a[0]
            state[col * 4 + 0] = a[0] ^ t ^ xtime[a[0] ^ a[1]]
            state[col * 4 + 1] = a[1] ^ t ^ xtime[a[1] ^ a[2]]
            state[col * 4 + 2] = a[2] ^ t ^ xtime[a[2] ^ a[3]]
            state[col * 4 + 3] = a[3] ^ t ^ xtime[a[3] ^ u]

    def add_round_key(round_key):
        for i in range(16):
            state[i] ^= round_key[i]

    add_round_key(round_keys[0])
    for r in range(1, ROUNDS):
        sub_bytes()
        shift_rows()
        mix_columns()
        add_round_key(round_keys[r])
    sub_bytes()
    shift_rows()
    add_round_key(round_keys[ROUNDS])
    return bytes(state)


class TestAes:
    def test_fips197_vector(self):
        # FIPS-197 Appendix B.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert encrypt_block(key, plaintext) == expected

    def test_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert encrypt_block(key, plaintext) == expected

    def test_ecb_is_blockwise(self):
        key = b"0123456789abcdef"
        data = bytes(range(48))
        out = encrypt_ecb(key, data)
        assert out[:16] == encrypt_block(key, data[:16])
        assert out[32:] == encrypt_block(key, data[32:])

    def test_identical_blocks_encrypt_identically(self):
        key = b"kkkkkkkkkkkkkkkk"
        out = encrypt_ecb(key, b"A" * 32)
        assert out[:16] == out[16:]  # the classic ECB weakness, by design

    def test_the_oracle_meets_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert textbook_encrypt_block(key, plaintext) == expected

    @given(
        key=st.binary(min_size=16, max_size=16),
        data=st.integers(0, 300).flatmap(
            lambda blocks: st.binary(min_size=16 * blocks, max_size=16 * blocks)
        ),
    )
    @settings(max_examples=40)
    def test_whole_buffer_rounds_match_the_per_block_oracle(self, key, data):
        expected = b"".join(
            textbook_encrypt_block(key, data[i : i + 16]) for i in range(0, len(data), 16)
        )
        assert encrypt_ecb(key, data) == expected


class TestHashes:
    @given(data=st.binary(max_size=500))
    @settings(max_examples=40)
    def test_sha512_matches_hashlib(self, data):
        assert sha512_bytes(data) == hashlib.sha512(data).digest()

    def test_incremental_equals_oneshot(self):
        data = bytes(range(256)) * 3
        sha = Sha512()
        for i in range(0, len(data), 53):
            sha.update(data[i : i + 53])
        assert sha.digest() == sha512_bytes(data)


class TestReedSolomon:
    def test_encode_decode_clean(self):
        rs = ReedSolomon(255, 223)
        message = bytes(range(223))
        codeword = rs.encode(message)
        assert len(codeword) == 255
        assert rs.decode(codeword) == message

    @pytest.mark.parametrize("n_errors", [1, 4, 8, 16])
    def test_corrects_up_to_t_errors(self, n_errors):
        rs = ReedSolomon(255, 223)
        message = bytes((i * 7 + 3) % 256 for i in range(223))
        codeword = rs.encode(message)
        positions = [(i * 13 + 5) % 255 for i in range(n_errors)]
        corrupted = rs.corrupt(codeword, positions)
        assert rs.decode(corrupted) == message

    def test_too_many_errors_detected(self):
        rs = ReedSolomon(255, 223)
        codeword = rs.encode(bytes(223))
        positions = list(range(0, 2 * 17 + 8, 2))[:25]  # 25 > t = 16
        corrupted = rs.corrupt(codeword, positions)
        with pytest.raises(DecodeError):
            rs.decode(corrupted)

    def test_smaller_code(self):
        rs = ReedSolomon(15, 11)
        message = bytes([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
        corrupted = rs.corrupt(rs.encode(message), [0, 14])
        assert rs.decode(corrupted) == message

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_errors=st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=15)
    def test_random_errors_always_corrected(self, seed, n_errors):
        rng = np.random.RandomState(seed)
        rs = ReedSolomon(255, 223)
        message = bytes(rng.randint(0, 256, size=223, dtype=np.int64).tolist())
        codeword = bytearray(rs.encode(message))
        positions = rng.choice(255, size=n_errors, replace=False)
        for p in positions:
            codeword[p] ^= int(rng.randint(1, 256))
        assert rs.decode(bytes(codeword)) == message


class TestSmithWaterman:
    def test_identical_sequences_score(self):
        # match=2: a perfect local alignment of length n scores 2n.
        assert best_score("ACGT", "ACGT") == 8

    def test_known_alignment(self):
        result = align("TACGGGCCCGCTAC", "TAGCCCTATCGGTCA")
        assert result.score > 0
        assert len(result.query_aligned) == len(result.target_aligned)

    def test_disjoint_sequences_score_low(self):
        assert best_score("AAAA", "TTTT") == 0

    def test_local_not_global(self):
        # A short perfect match inside noise scores as the match alone.
        assert best_score("GGGGACGTGGGG", "TTTTACGTTTTT") >= 8

    @given(seq=st.text(alphabet="ACGT", min_size=1, max_size=12))
    @settings(max_examples=30)
    def test_self_alignment_is_maximal(self, seq):
        score = best_score(seq, seq)
        assert score == 2 * len(seq)


class TestDsp:
    def test_fir_impulse_response_reproduces_taps(self):
        taps = lowpass_taps(8)
        impulse = np.zeros(32, dtype=np.int16)
        impulse[0] = 32767 // 4  # scaled impulse to stay in range
        out = fir_filter(impulse, taps)
        expected = (taps.astype(np.int64) * (32767 // 4)) >> 15
        assert np.array_equal(out[:8], expected.astype(np.int16))

    def test_fir_dc_gain_near_unity(self):
        taps = lowpass_taps(16)
        dc = np.full(256, 1000, dtype=np.int16)
        out = fir_filter(dc, taps)
        assert abs(int(out[-1]) - 1000) <= 2  # Q15 rounding

    def test_lowpass_taps_are_computed_once_and_never_shared(self):
        taps = lowpass_taps(16)
        assert taps.dtype == np.int16 and taps.tolist() == [
            -79, -136, 312, 654, -1244, -2280, 4501, 14654,
            14654, 4501, -2280, -1244, 654, 312, -136, -79,
        ]  # as recorded before the taps were memoised
        taps[:] = 0  # one FIR tenant scribbling on its taps ...
        assert lowpass_taps(16)[7] == 14654  # ... corrupts nobody else's

    def test_gaussian_moments(self):
        gen = GaussianGenerator(seed=12345)
        samples = gen.block(20000)
        assert abs(float(samples.mean())) < 0.05
        assert abs(float(samples.std()) - 1.0) < 0.05

    def test_gaussian_deterministic(self):
        a = GaussianGenerator(seed=7).block(64)
        b = GaussianGenerator(seed=7).block(64)
        assert np.array_equal(a, b)


class TestImage:
    def make_image(self, h=16, w=16):
        rng = np.random.RandomState(0)
        return rng.randint(0, 256, size=(h, w), dtype=np.int64).astype(np.uint8)

    def test_grayscale_weights(self):
        rgba = np.zeros((2, 2, 4), dtype=np.uint8)
        rgba[:, :, 1] = 255  # pure green
        gray = grayscale(rgba)
        assert int(gray[0, 0]) == (150 * 255) >> 8

    def test_gaussian_preserves_flat_regions(self):
        flat = np.full((8, 8), 100, dtype=np.uint8)
        assert np.array_equal(gaussian_blur(flat), flat)

    def test_gaussian_smooths_impulse(self):
        img = np.zeros((5, 5), dtype=np.uint8)
        img[2, 2] = 255
        out = gaussian_blur(img)
        assert out[2, 2] > out[2, 1] > out[1, 1]

    def test_sobel_flat_is_zero_and_edge_is_strong(self):
        flat = np.full((8, 8), 77, dtype=np.uint8)
        assert gaussian_blur(flat).max() == 77
        assert sobel(flat).max() == 0
        edge = np.zeros((8, 8), dtype=np.uint8)
        edge[:, 4:] = 255
        assert sobel(edge).max() == 255


class TestGraph:
    def test_random_graph_shape(self):
        g = random_graph(100, 500, seed=1)
        assert g.n_vertices == 100
        assert g.n_edges == 500

    def test_serialize_round_trip(self):
        g = random_graph(50, 200, seed=2)
        data = g.serialize()
        assert len(data) == g.serialized_bytes
        g2 = CsrGraph.deserialize(data, 50)
        assert np.array_equal(g.offsets, g2.offsets)
        assert np.array_equal(g.targets, g2.targets)
        assert np.array_equal(g.weights, g2.weights)

    def test_bellman_ford_matches_dijkstra(self):
        g = random_graph(200, 1500, seed=3)
        assert np.array_equal(sssp_dijkstra(g, 0), sssp_bellman_ford(g, 0))

    def test_networkx_cross_check(self):
        networkx = pytest.importorskip("networkx")
        g = random_graph(60, 400, seed=4)
        nx_graph = networkx.DiGraph()
        nx_graph.add_nodes_from(range(60))
        for v in range(60):
            for t, w in g.neighbors(v):
                if nx_graph.has_edge(v, t):
                    w = min(w, nx_graph[v][t]["weight"])
                nx_graph.add_edge(v, t, weight=w)
        expected = networkx.single_source_dijkstra_path_length(nx_graph, 0)
        ours = sssp_dijkstra(g, 0)
        for vertex, distance in expected.items():
            assert int(ours[vertex]) == distance


class TestBitcoin:
    def make_header(self):
        return BlockHeader(
            version=2,
            prev_hash=bytes(32),
            merkle_root=bytes(range(32)),
            timestamp=1_600_000_000,
            bits=0x1D00FFFF,
        )

    def test_mining_finds_valid_nonce(self):
        header = self.make_header()
        target = easy_target(10)
        nonce = mine(header, target, max_attempts=1 << 16)
        assert nonce is not None
        assert meets_target(header.serialize(nonce), target)

    def test_hash_is_deterministic(self):
        header = self.make_header()
        assert hash_value(header.serialize(1)) == hash_value(header.serialize(1))
        assert hash_value(header.serialize(1)) != hash_value(header.serialize(2))

    def test_harder_target_needs_more_attempts(self):
        header = self.make_header()
        impossible = 1  # essentially unreachable
        assert mine(header, impossible, max_attempts=64) is None
