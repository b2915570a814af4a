"""Fast-path vs reference equivalence.

The burst fast path (``PlatformParams.fast_path``, attached only on the
pass-through datapath) must be *invisible* in results: burst coalescing
may only change wall-clock time, never a simulated timestamp, byte count,
latency sample, or functional payload.  These tests run the same
workloads with ``fast_path=True`` and ``fast_path=False`` and demand
bit-identical metrics — including configurations where bursts genuinely
*commit* on the analytic path (asserted via the fast path's counters),
not just split back into reference packets.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.base import AcceleratorProfile
from repro.accel.md5 import Md5Job
from repro.accel.streaming import REG_DST, REG_LEN, REG_SRC, StreamingJob
from repro.fpga.resources import ResourceFootprint
from repro.guest import NativeAccelerator
from repro.hv import PassthroughHypervisor
from repro.interconnect.channel_selector import VirtualChannel
from repro.mem import MB
from repro.platform import PlatformMode, PlatformParams, build_platform
from repro.platform import fastpath as fastpath_module
from repro.platform.fastpath import FastPath
from repro.sim.clock import ms
from repro.sim.packet import CACHE_LINE_BYTES


_READER_PROFILE = AcceleratorProfile(
    name="RD0",
    description="compute-bound streaming reader (equivalence tests)",
    loc_verilog=0,
    freq_mhz=400.0,
    footprint=ResourceFootprint(alm_pct=1.0, bram_pct=1.0),
    max_outstanding=64,
)


class ComputeBoundReader(StreamingJob):
    """A pure reader slow enough that the DMA pipeline drains between
    tiles — the regime where bursts actually commit on the fast path."""

    profile = _READER_PROFILE
    bytes_per_cycle = 4.0  # 1.6 GB/s demand: compute-bound
    output_ratio = 0.0
    tile_lines = 64
    prefetch_tiles = 2

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__(functional=functional)
        self.digest = hashlib.sha256()

    def transform(self, data: bytes, offset: int) -> bytes:
        self.digest.update(data)
        return data


def _metrics(platform, job):
    """Everything observable a run produces, for exact comparison."""
    dma = platform.sockets[0].dma
    stats = platform.iommu.iotlb.stats
    return {
        "finish_ps": platform.engine.now,
        "latency_samples": tuple(sorted(dma.latency.samples_ps)),
        "afu_read": (dma.read_meter.bytes_total, dma.read_meter.packets_total),
        "afu_write": (dma.write_meter.bytes_total, dma.write_meter.packets_total),
        "mem_read": (
            platform.memory.read_meter.bytes_total,
            platform.memory.read_meter.packets_total,
        ),
        "iotlb": (stats.hits, stats.misses, stats.evictions),
        "dram": (platform.dram.reads, platform.dram.writes),
        "links": tuple(
            (
                link.meter_to_memory.bytes_total,
                link.meter_to_memory.packets_total,
                link.meter_from_memory.bytes_total,
                link.meter_from_memory.packets_total,
            )
            for link in platform.links
        ),
        "faults": dict(platform.iommu.faults),
        "dropped": dma.dropped,
        "bytes_in": job.bytes_in,
    }


def _run_stream(job, data, *, fast, spec_opt, limit_ms=50, channel=VirtualChannel.VA):
    params = PlatformParams(speculative_region_opt=spec_opt, fast_path=fast)
    platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
    hypervisor = PassthroughHypervisor(platform)
    handle = NativeAccelerator(hypervisor, window_bytes=32 * MB)
    src = handle.alloc_buffer(len(data))
    handle.write_buffer(src, data)
    dst = handle.alloc_buffer(64 * 1024)
    job.regs.update({REG_SRC: src, REG_DST: dst, REG_LEN: len(data)})
    done = hypervisor.start_job(job, channel=channel)
    platform.engine.run_until(done, limit_ps=ms(limit_ms))
    assert job.done
    fastpath = platform.sockets[0].dma.fastpath
    return _metrics(platform, job), fastpath, handle, dst


class TestBurstCommitEquivalence:
    def test_committed_bursts_are_bit_identical_to_reference(self):
        data = bytes((7 * i + 3) % 256 for i in range(256 * 1024))

        ref_job = ComputeBoundReader()
        ref_metrics, ref_fastpath, _, _ = _run_stream(
            ref_job, data, fast=False, spec_opt=False
        )
        assert ref_fastpath is None

        fast_job = ComputeBoundReader()
        fast_metrics, fastpath, _, _ = _run_stream(
            fast_job, data, fast=True, spec_opt=False
        )
        # The configuration must actually exercise the analytic commit path,
        # otherwise this test only re-proves the (trivially exact) split.
        assert fastpath is not None
        assert fastpath.committed_bursts > 0
        assert fastpath.committed_lines >= fastpath.committed_bursts

        assert fast_metrics == ref_metrics
        # Functional payloads are byte-identical as well.
        expected = hashlib.sha256(data).hexdigest()
        assert ref_job.digest.hexdigest() == expected
        assert fast_job.digest.hexdigest() == expected

    def test_speculative_opt_platforms_split_everything(self):
        # With the §6.5 speculative pipeline on, per-line translation
        # latency depends on interleaving: the governor must decline every
        # burst, and the split path must still match the reference exactly.
        data = bytes((11 * i + 5) % 256 for i in range(128 * 1024))

        ref_job = Md5Job()
        ref_metrics, _, ref_handle, ref_dst = _run_stream(
            ref_job, data, fast=False, spec_opt=True
        )
        fast_job = Md5Job()
        fast_metrics, fastpath, fast_handle, fast_dst = _run_stream(
            fast_job, data, fast=True, spec_opt=True
        )
        assert fastpath is not None
        assert fastpath.committed_bursts == 0
        assert fastpath.declined_bursts > 0
        assert fast_metrics == ref_metrics
        record_bytes = len(data) // 64  # one 64-byte record per 4 KB chunk
        assert fast_handle.read_buffer(fast_dst, record_bytes) == ref_handle.read_buffer(
            ref_dst, record_bytes
        )


def _reader(bytes_per_cycle):
    class Reader(ComputeBoundReader):
        pass

    Reader.bytes_per_cycle = bytes_per_cycle
    return Reader


@pytest.fixture
def memo_checked(monkeypatch):
    """Test-side differential wrapper around ``FastPath._commit``: every plan
    about to be applied — memo hit or miss — must equal a fresh sandbox plan
    of the live state, and the memo must be within its bound.  Call it with the
    run's channel (``_commit`` is not handed one); it installs the wrapper
    and returns the list of per-commit memo sizes."""

    def install(channel):
        sizes = []
        real_commit = FastPath._commit

        def checked(self, dma, packet, hpa_base, plan):
            lines = packet.size // CACHE_LINE_BYTES
            assert plan == self._plan_relative(dma, lines, channel)
            sizes.append(len(self._memo))
            assert sizes[-1] <= fastpath_module.PLAN_MEMO_BOUND
            return real_commit(self, dma, packet, hpa_base, plan)

        monkeypatch.setattr(FastPath, "_commit", checked)
        return sizes

    return install


class TestPlanMemo:
    """The memoized relative plan is the sandboxed reference run of the live
    state, shifted: DESIGN.md §14."""

    DATA = bytes((5 * i + 1) % 256 for i in range(256 * 1024))

    @pytest.mark.parametrize("channel", [VirtualChannel.VA, VirtualChannel.VL0, VirtualChannel.VH0])
    @pytest.mark.parametrize("bytes_per_cycle", [4.0, 16.0, 64.0])
    def test_every_committed_plan_equals_a_fresh_plan(
        self, memo_checked, bytes_per_cycle, channel
    ):
        memo_sizes = memo_checked(channel)
        job = _reader(bytes_per_cycle)()
        fast_metrics, fastpath, _, _ = _run_stream(
            job, self.DATA, fast=True, spec_opt=False, channel=channel
        )
        assert job.digest.hexdigest() == hashlib.sha256(self.DATA).hexdigest()
        assert len(memo_sizes) == fastpath.committed_bursts
        assert fastpath.planned_bursts <= fastpath.committed_bursts
        if (bytes_per_cycle, channel) == (64.0, VirtualChannel.VH0):
            # The first (cold-IOTLB) split never drains: every later burst
            # finds real packets in flight and splits too.
            assert fastpath.committed_bursts == 0
            return
        assert fastpath.committed_bursts > 60
        if (bytes_per_cycle, channel) == (64.0, VirtualChannel.VA):
            # Saturated links on three-way VA: states only start to recur
            # past this stream's 64 tiles, and see
            # test_saturated_va_overlap_drifts_from_reference.
            return
        # The memo is doing something: a steady stream revisits its states.
        assert fastpath.planned_bursts <= fastpath.committed_bursts // 2
        ref_metrics, _, _, _ = _run_stream(
            _reader(bytes_per_cycle)(), self.DATA, fast=False, spec_opt=False, channel=channel
        )
        assert fast_metrics == ref_metrics

    @pytest.mark.xfail(strict=True, reason="known gap that predates the memo: a VA "
                       "burst planned over in-flight burst lines counts their future link "
                       "reservations as backlog (fastpath.py module docstring)")
    def test_saturated_va_overlap_drifts_from_reference(self):
        runs = [
            _run_stream(_reader(64.0)(), self.DATA, fast=fast, spec_opt=False)[0]
            for fast in (True, False)
        ]
        assert runs[0] == runs[1]

    def test_eviction_is_invisible_and_the_bound_holds(self, memo_checked, monkeypatch):
        # The memory-bound VA reader visits far more states than a tiny bound.
        memo_sizes = memo_checked(VirtualChannel.VA)
        unbounded, fastpath, _, _ = _run_stream(
            _reader(64.0)(), self.DATA, fast=True, spec_opt=False
        )
        assert max(memo_sizes) > 8
        del memo_sizes[:]
        monkeypatch.setattr(fastpath_module, "PLAN_MEMO_BOUND", 8)
        bounded, evicting, _, _ = _run_stream(
            _reader(64.0)(), self.DATA, fast=True, spec_opt=False
        )
        assert max(memo_sizes) == 8
        assert evicting.planned_bursts >= fastpath.planned_bursts
        assert bounded == unbounded


def _burst_rounds(fast, channel, actions):
    """One warm-up burst, then one burst after each action (a callable on
    the platform's links), each run to completion.  Returns the observable
    metrics, the fast path and the per-round server free times."""
    params = PlatformParams(speculative_region_opt=False, fast_path=fast)
    platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
    handle = NativeAccelerator(PassthroughHypervisor(platform), window_bytes=32 * MB)
    dma = platform.sockets[0].dma
    src = handle.alloc_buffer(4096)
    frees = []
    for action in [lambda links: None, *actions]:
        action(platform.links)
        done = dma.read(src, 4096, channel=channel, coalesced=True)
        platform.engine.run_until(done, limit_ps=platform.engine.now + ms(1))
        frees.append([
            (link.to_memory._next_free_ps, link.from_memory._next_free_ps)
            for link in platform.links
        ])
    metrics = {
        "now_ps": platform.engine.now,
        # Per round (64 lines each); within one the reference records in
        # completion order, a committed burst in line order.
        "latency_samples": [
            sorted(dma.latency.samples_ps[at : at + 64])
            for at in range(0, dma.latency.count, 64)
        ],
        "links": [
            (link.meter_to_memory.packets_total, link.meter_from_memory.bytes_total)
            for link in platform.links
        ],
    }
    return metrics, dma.fastpath, frees


class TestMemoKeyCarriesServiceTimes:
    ACTIONS = [
        lambda links: None,
        lambda links: links[0].degrade(4.0),
        lambda links: None,
        lambda links: links[0].restore(),
    ]

    @pytest.mark.parametrize("channel", [VirtualChannel.VL0, VirtualChannel.VA])
    def test_degrade_between_bursts_cannot_be_served_a_stale_plan(self, channel):
        fast, fastpath, _ = _burst_rounds(True, channel, self.ACTIONS)
        reference, _, _ = _burst_rounds(False, channel, self.ACTIONS)
        assert fast == reference
        assert fastpath.committed_bursts == 4  # all but the cold-IOTLB warm-up
        if channel is VirtualChannel.VL0:
            # Idle platform, pinned channel: the four bursts differ only in
            # UPI's service time — nominal, degraded, degraded, nominal.
            assert fastpath.planned_bursts == 2
        _warmup, _first, degraded, _still_degraded, restored = fast["latency_samples"]
        assert sum(degraded) > sum(restored)

    def test_unused_servers_keep_their_stale_free_times(self):
        _, fastpath, frees = _burst_rounds(True, VirtualChannel.VL0, self.ACTIONS[:2])
        assert fastpath.committed_bursts == 2
        warmup, *committed = frees
        for after in committed:
            assert after[0] != warmup[0]  # UPI carried the burst
            assert after[1:] == warmup[1:]  # the PCIe links were never touched


_offset = st.integers(min_value=-2_000_000, max_value=2_000_000)


@st.composite
def _relative_states(draw):
    """A burst and the state its plan reads, as offsets from now: seven
    server free times and the throttle (negative: stale), the window's
    pending completions (all in the future), cursor, window size."""
    max_outstanding = draw(st.sampled_from([1, 8, 64]))
    return {
        "lines": draw(st.integers(min_value=1, max_value=64)),
        "channel": draw(st.sampled_from(list(VirtualChannel))),
        "max_outstanding": max_outstanding,
        "cursor": draw(st.integers(min_value=0, max_value=1000)),
        "frees": draw(st.lists(_offset, min_size=7, max_size=7)),
        "next_issue": draw(_offset),
        "window": sorted(draw(st.lists(
            st.integers(min_value=1, max_value=2_000_000), max_size=max_outstanding
        ))),
    }


class TestPlanIsTimeTranslationInvariant:
    """The invariant the memo rests on, checked on the planner itself."""

    def _install(self, platform, state, now, frees):
        dma = platform.sockets[0].dma
        platform.engine.now = now
        servers = [platform.dram._server]
        for link in platform.links:
            servers += [link.to_memory, link.from_memory]
        for server, free in zip(servers, frees):
            server._next_free_ps = now + free
        dma.max_outstanding = state["max_outstanding"]
        dma._next_issue_ps = now + state["next_issue"]
        dma._virtual_completions = [now + offset for offset in state["window"]]
        dma._outstanding = len(state["window"])
        return dma

    @given(
        state=_relative_states(),
        now=st.integers(min_value=3_000_000, max_value=10**12),
        shift=st.integers(min_value=0, max_value=10**12),
        restale=st.lists(st.integers(min_value=-2_000_000, max_value=0), min_size=8, max_size=8),
        laps=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=150)
    def test_plan_shifts_rigidly_and_cannot_see_how_stale_a_past_instant_is(
        self, state, now, shift, restale, laps
    ):
        platform = build_platform(
            PlatformParams(speculative_region_opt=False, fast_path=True),
            mode=PlatformMode.PASSTHROUGH,
        )
        fastpath = platform.sockets[0].dma.fastpath
        lines, channel = state["lines"], state["channel"]

        dma = self._install(platform, state, now, state["frees"])
        platform.selector._rr_cursor = state["cursor"]
        key = fastpath._relative_state(dma, lines, channel)
        plan = fastpath._plan_relative(dma, lines, channel)

        # The same state later: future instants move with now, every stale
        # one becomes stale by some other amount, the cursor laps around.
        later = dict(state)
        *stale_frees, stale_issue = restale
        later["next_issue"] = state["next_issue"] if state["next_issue"] > 0 else stale_issue
        moved_frees = [
            free if free > 0 else stale for free, stale in zip(state["frees"], stale_frees)
        ]
        dma = self._install(platform, later, now + shift, moved_frees)
        platform.selector._rr_cursor = state["cursor"] + laps * fastpath._cursor_period
        assert fastpath._relative_state(dma, lines, channel) == key
        assert fastpath._plan_relative(dma, lines, channel) == plan


class TestBurstApi:
    def _idle_platform(self):
        params = PlatformParams(speculative_region_opt=False, fast_path=True)
        platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
        hypervisor = PassthroughHypervisor(platform)
        handle = NativeAccelerator(hypervisor, window_bytes=32 * MB)
        return platform, handle

    def test_read_burst_miss_splits_then_hit_commits(self):
        platform, handle = self._idle_platform()
        dma = platform.sockets[0].dma
        payload = bytes(range(256)) * 16  # 4 KB
        src = handle.alloc_buffer(len(payload))
        handle.write_buffer(src, payload)

        # Cold IOTLB: the first burst must take the (exact) split path.
        first = dma.read(src, len(payload), coalesced=True)
        assert platform.engine.run_until(first, limit_ps=ms(1)) == payload
        assert dma.fastpath.committed_bursts == 0
        assert dma.fastpath.declined_bursts >= 1

        # Warm IOTLB, idle engine: the second burst commits analytically.
        second = dma.read(src, len(payload), coalesced=True)
        assert platform.engine.run_until(second, limit_ps=ms(1)) == payload
        assert dma.fastpath.committed_bursts == 1
        assert dma.fastpath.committed_lines == len(payload) // 64

    def test_write_burst_always_splits_and_lands(self):
        platform, handle = self._idle_platform()
        dma = platform.sockets[0].dma
        payload = bytes((3 * i) % 256 for i in range(8 * 1024))
        dst = handle.alloc_buffer(len(payload))

        done = dma.write(dst, payload, coalesced=True)
        assert platform.engine.run_until(done, limit_ps=ms(1)) is True
        assert dma.fastpath.committed_bursts == 0
        assert handle.read_buffer(dst, len(payload)) == payload
