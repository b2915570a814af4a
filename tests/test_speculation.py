"""Tests for speculative epoch lookahead and the op-stream fast path.

Three layers:

* the binary codec (:mod:`repro.parallel.opstream`) — round trips,
  persistent intern/epoch state across frames, the pickle cold tail,
  the compactness claim the bench rests on, and ``FrameError`` as the
  one outcome of a malformed frame;
* the conflict detector (:mod:`repro.parallel.speculate`) — grant,
  commit-by-suppression, rollback, observation-point cancellation;
* the whole protocol — an uncontended grid must speculate without a
  single rollback and stay byte-identical to serial, and a seeded
  conflict-heavy scenario (autoscaler evacuations during a chaos plan)
  must provably roll back at least once and *still* stay
  byte-identical.
"""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.opstream import (
    FrameDecoder,
    FrameEncoder,
    FrameError,
    OpStreamStats,
    decode_frame,
    encode_frame,
)
from repro.parallel.speculate import SpeculationController, conflict_class


# -- binary codec --------------------------------------------------------------


HOT_BATCH = [
    (0, 1_000_000, "place", ("t00001", "aes", 2, False)),
    (0, 1_000_000, "place", ("t00002", "aes", 3, True)),
    (1, 2_500_000, "evict", ("t00001",)),
    (0, 2_000_000, "cordon", ()),  # negative epoch delta vs previous op
    (0, 2_000_000, "uncordon", ()),
    (1, 3_000_000, "crash", ()),
    (1, 3_500_000, "recover", ()),
    (0, 4_000_000, "degrade", (0.25,)),
    (0, 4_000_000, "restore", ()),
    (0, 4_500_000, "bump_auditor", (2, "mmio_writes", 7)),
    (1, 5_000_000, "spec_evict", ("t00002",)),
    (1, 5_000_000, "spec_rollback", (("t00002",),)),
]


def _pickle_tail_frame(blob: bytes) -> bytes:
    """One ``OP_PICKLE`` op (node 0, epoch 0) whose tail is ``blob``."""
    return bytes([1, 0xFF, 0, 0, len(blob)]) + blob


class TestFrameCodec:
    def test_hot_batch_round_trips(self):
        assert decode_frame(encode_frame(HOT_BATCH)) == HOT_BATCH

    def test_hot_batch_wire_bytes_are_pinned(self):
        # The layout the module docstring describes, byte for byte: a
        # faster encoder must write exactly these bytes.
        assert encode_frame(HOT_BATCH).hex() == (
            "0c010080897a00067430303030310003616573020c000000067430303030320203"
            "0201c08db701010300bf843d040000050180897a0601c0843d0800c0843d3fd000"
            "00000000000700000900c0843d02000b6d6d696f5f777269746573070a01c0843d"
            "030b01000103"
        )

    def test_cold_tail_falls_back_to_pickle(self):
        batch = [(0, 1, "restore_tenant", ({"any": "payload"}, 4, False))]
        assert decode_frame(encode_frame(batch)) == batch
        # Unknown future ops survive the codec too.
        weird = [(3, 9, "weird_op", (("nested",), {"k": 2}))]
        assert decode_frame(encode_frame(weird)) == weird

    def test_state_persists_across_frames(self):
        encoder, decoder = FrameEncoder(), FrameDecoder()
        first = [(0, 10_000_000, "place", ("t00001", "aes", 0, False))]
        second = [(0, 10_500_000, "evict", ("t00001",))]
        frame_a = encoder.encode(first)
        frame_b = encoder.encode(second)
        assert decoder.decode(frame_a) == first
        assert decoder.decode(frame_b) == second
        # The tenant name shipped once (frame A); frame B is an op head
        # (code + node + epoch delta) plus a 1-byte intern ref.
        assert len(frame_b) <= 8

    def test_interning_makes_repeats_cheap(self):
        repeats = [(0, 1000 + i, "evict", ("a-long-tenant-name",)) for i in range(8)]
        frame = encode_frame(repeats)
        once = encode_frame(repeats[:1])
        # 7 extra evictions cost a few bytes each, not 7 more names.
        assert len(frame) < len(once) + 7 * 5

    def test_binary_beats_pickle_on_hot_ops(self):
        frame = encode_frame(HOT_BATCH)
        blob = pickle.dumps(HOT_BATCH, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(frame) * 3 < len(blob)

    def test_decoding_frames_out_of_order_is_detected_by_content(self):
        # Frames must decode in ship order; the intern table makes a
        # skipped frame loud (missing reference) rather than silent.
        encoder = FrameEncoder()
        encoder.encode([(0, 1, "place", ("t00001", "aes", 0, False))])
        frame_b = encoder.encode([(0, 2, "evict", ("t00001",))])
        with pytest.raises(FrameError):
            FrameDecoder().decode(frame_b)

    def test_every_cut_of_a_frame_is_a_frame_error(self):
        frame = encode_frame(HOT_BATCH[:3])
        for cut in range(len(frame)):
            with pytest.raises(FrameError):
                decode_frame(frame[:cut])

    @pytest.mark.parametrize(
        "frame, reason",
        [
            (encode_frame(HOT_BATCH[:1]) + b"\x00", "trailing bytes"),
            (b"\x01\x63\x00\x00", "unknown op code 99"),
            (b"\x01\x02\x00\x00\x00\x02\xff\xfe", "not UTF-8"),
            (b"\x01\x02\x00\x00\x05", "never interned"),
            (_pickle_tail_frame(b"abc"), "bad OP_PICKLE tail"),
            (
                _pickle_tail_frame(pickle.dumps(("op", [1]))),
                r"not an \(op, payload\) pair",
            ),
        ],
    )
    def test_malformed_frames_raise_frame_error(self, frame, reason):
        with pytest.raises(FrameError, match=reason):
            decode_frame(frame)


# Random op batches for the codec properties: every hot op kind, the pickle
# tail (plain data only: a flipped byte in a pickle of a class would import
# whatever name it now spells), non-ASCII names, nodes and slots past one
# varint byte, and epochs that move both ways.
_NAMES = st.text(min_size=1, max_size=8)
_SLOT = st.integers(0, 300)
_OPS = st.one_of(
    st.tuples(st.just("place"), st.tuples(_NAMES, _NAMES, _SLOT, st.booleans())),
    st.tuples(st.sampled_from(["evict", "spec_evict"]), st.tuples(_NAMES)),
    st.tuples(
        st.just("spec_rollback"),
        st.lists(_NAMES, max_size=3).map(lambda names: (tuple(names),)),
    ),
    st.tuples(
        st.just("degrade"),
        st.floats(allow_nan=False).map(lambda factor: (factor,)),
    ),
    st.tuples(
        st.just("bump_auditor"), st.tuples(_SLOT, _NAMES, st.integers(0, 10**6))
    ),
    st.tuples(
        st.sampled_from(["cordon", "uncordon", "crash", "recover", "restore"]),
        st.just(()),
    ),
    st.tuples(
        st.just("restore_tenant"), st.tuples(st.binary(max_size=8), _SLOT)
    ),
)
_BATCH = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 2**48), _OPS).map(
        lambda op: (op[0], op[1], *op[2])
    ),
    min_size=1,
    max_size=8,
)


class TestFrameCodecProperties:
    @given(batches=st.lists(_BATCH, min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_a_stream_of_frames_round_trips(self, batches):
        encoder, decoder = FrameEncoder(), FrameDecoder()
        for batch in batches:
            assert decoder.decode(encoder.encode(batch)) == batch

    @given(batch=_BATCH, data=st.data())
    @settings(max_examples=300)
    def test_cut_or_flipped_frames_decode_or_raise_frame_error(self, batch, data):
        frame = encode_frame(batch)
        cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
        at = data.draw(st.integers(0, len(frame) - 1), label="flip at")
        mask = data.draw(st.integers(1, 255), label="flip mask")
        flipped = bytearray(frame)
        flipped[at] ^= mask
        for damaged in (frame[:cut], bytes(flipped)):
            try:
                decode_frame(damaged)
            except FrameError:
                pass


class TestOpStreamStats:
    def test_rollbacks_ledger_groups_by_class(self):
        stats = OpStreamStats()
        stats.record_rollback("migration", 2)
        stats.record_rollback("late_eviction", 1)
        stats.record_rollback("migration", 1)
        snapshot = stats.to_dict()
        assert snapshot["rollbacks"] == 4
        assert snapshot["rollbacks_by_class"] == {
            "late_eviction": 1,
            "migration": 3,
        }

    def test_conflict_classes_cover_every_event_kind(self):
        for kind, expected in [
            ("arrival", "admission"),
            ("retry", "admission"),
            ("departure", "late_eviction"),
            ("fault", "fault"),
            ("watchdog", "fault"),
            ("ops", "operation"),
            ("migration", "migration"),
            ("autoscale", "autoscale"),
            ("observation", "observation"),
        ]:
            assert conflict_class(kind) == expected
        assert conflict_class("") == "unknown"


# -- conflict detector ---------------------------------------------------------


class TestSpeculationController:
    def test_granted_eviction_commits_by_suppression(self):
        controller = SpeculationController(lookahead=4)
        controller.grant(0, "t00001", 5_000)
        verdict = controller.intercept(0, "evict", ("t00001",), 5_000)
        assert verdict == ("commit", ("t00001",))
        assert not controller.active

    def test_conflicting_op_rolls_back_every_grant_on_the_node(self):
        controller = SpeculationController(lookahead=4)
        controller.grant(0, "t00001", 5_000)
        controller.grant(0, "t00002", 6_000)
        verdict = controller.intercept(
            0, "place", ("t00009", "aes", 1, False), 4_000
        )
        assert verdict == ("rollback", ("t00001", "t00002"))
        assert not controller.active

    def test_eviction_at_the_wrong_epoch_is_a_conflict(self):
        controller = SpeculationController(lookahead=4)
        controller.grant(0, "t00001", 5_000)
        verdict = controller.intercept(0, "evict", ("t00001",), 4_000)
        assert verdict == ("rollback", ("t00001",))

    def test_ops_on_other_nodes_pass_through(self):
        controller = SpeculationController(lookahead=4)
        controller.grant(0, "t00001", 5_000)
        assert controller.intercept(1, "evict", ("t00009",), 4_000) is None
        assert controller.active

    def test_cancel_node_returns_grants_in_application_order(self):
        controller = SpeculationController(lookahead=4)
        controller.grant(2, "t00003", 5_000)
        controller.grant(2, "t00001", 6_000)
        assert controller.cancel_node(2) == ("t00003", "t00001")
        assert controller.cancel_node(2) == ()


# -- whole protocol ------------------------------------------------------------


def _summary_bytes(summary) -> str:
    return json.dumps(summary, sort_keys=True, default=str)


class TestLookaheadDeterminism:
    def test_uncontended_grid_speculates_without_rollback(self):
        from repro.experiments.fleet_scaling import serve_fleet

        serial = serve_fleet(3, 0.5, requests=60, reference_nodes=3)
        stats: dict = {}
        sharded = serve_fleet(
            3,
            0.5,
            requests=60,
            reference_nodes=3,
            shards=2,
            lookahead=8,
            opstream_stats=stats,
        )
        assert _summary_bytes(sharded) == _summary_bytes(serial)
        assert stats["grants"] > 0, "lookahead never speculated"
        assert stats["rollbacks"] == 0, stats["rollbacks_by_class"]
        assert stats["commits"] == stats["grants"]

    def test_conflict_heavy_scenario_rolls_back_and_still_matches(self):
        # A rolled-back grant is dropped worker-side and never applied;
        # the run ends with the shadow ledgers checked against the
        # workers' recount (serve()'s end barrier re-raises any
        # divergence here).
        serial, _ = _chaos_autoscale_run(shards=1)
        sharded, stats = _chaos_autoscale_run(shards=2, lookahead=4)
        assert stats["rollbacks"] >= 1, (
            "scenario was supposed to conflict; tune the plan if the "
            f"fleet layer changed (ledger: {stats})"
        )
        assert sharded == serial


def _chaos_autoscale_run(*, shards, lookahead=0):
    """Autoscaler evacuations during a chaos plan: migrations land in
    epochs the workers have already speculated past."""
    from tests.test_parallel import serve_surfaces

    return serve_surfaces(
        shards, lookahead, plan="degrade-crash", standby=("node2",), requests=60
    )
