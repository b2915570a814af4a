"""Unit + property tests for slicing, auditors, mux tree, VCU, and monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MGMT_PAGE_BYTES,
    REG_ACCEL_SELECT,
    REG_MAGIC,
    REG_NUM_ACCELS,
    REG_RESET,
    REG_SLICE_BASE,
    REG_WINDOW_BASE,
    REG_WINDOW_SIZE,
    SliceLayout,
    VCU_MAGIC,
    accel_mmio_base,
    default_layout,
)
from collections import deque

from repro.core.mux_tree import WRITE_ROOT_WEIGHT, MuxNode, MuxTree
from repro.mem import GB, MB, PAGE_SIZE_2M
from repro.mem.iommu import IOTLB_ENTRIES
from repro.platform import PlatformMode, PlatformParams, build_platform
from repro.sim import Clock, Engine
from repro.sim.clock import gbps_to_bytes_per_ps
from repro.sim.packet import AddressSpace, PacketKind, dma_read, dma_write


class TestSliceLayout:
    def test_paper_defaults(self):
        layout = default_layout(PAGE_SIZE_2M)
        assert layout.slice_bytes == 64 * GB
        assert layout.gap_bytes == 128 * MB
        assert layout.stride == 64 * GB + 128 * MB

    def test_slices_do_not_overlap(self):
        layout = default_layout(PAGE_SIZE_2M)
        slices = layout.slices(8)
        for a, b in zip(slices, slices[1:]):
            assert a.iova_end <= b.iova_base

    def test_mitigated_layout_tiles_iotlb_sets(self):
        layout = default_layout(PAGE_SIZE_2M, mitigated=True)
        skews = [layout.iotlb_set_skew(i) for i in range(8)]
        # 128 MB gap = 64 huge pages -> accelerator k starts at set 64k.
        assert skews == [0, 64, 128, 192, 256, 320, 384, 448]

    def test_unmitigated_layout_collides_on_set_zero(self):
        layout = default_layout(PAGE_SIZE_2M, mitigated=False)
        assert all(layout.iotlb_set_skew(i) == 0 for i in range(8))
        assert layout.conflict_free_bytes_per_slice(8) == 0

    def test_conflict_free_reach_is_128mb_for_8_slices(self):
        layout = default_layout(PAGE_SIZE_2M, mitigated=True)
        assert layout.conflict_free_bytes_per_slice(8) == 128 * MB

    def test_single_slice_gets_full_iotlb(self):
        layout = default_layout(PAGE_SIZE_2M)
        assert layout.conflict_free_bytes_per_slice(1) == IOTLB_ENTRIES * PAGE_SIZE_2M

    def test_offset_round_trip(self):
        layout = default_layout(PAGE_SIZE_2M)
        s = layout.slice_for(3)
        gva_base = 0x7F0000000000 & ~(PAGE_SIZE_2M - 1)
        offset = s.offset_for(gva_base)
        assert gva_base + offset == s.iova_base

    @given(index=st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_any_slice_fits_48_bits(self, index):
        layout = default_layout(PAGE_SIZE_2M)
        if index < layout.max_slices:
            s = layout.slice_for(index)
            assert s.iova_end <= 1 << 48


class TestMuxTree:
    def make_tree(self, n_leaves, radix=2):
        engine = Engine()
        arrivals = []

        def egress(packet, channel, on_response):
            arrivals.append((engine.now, packet))
            on_response(packet.make_response(data=bytes(packet.size)))

        tree = MuxTree(
            engine, n_leaves, radix=radix, clock=Clock(400.0),
            level_latency_ps=33_000, root_egress=egress,
        )
        return engine, tree, arrivals

    def test_eight_leaves_binary_gives_three_levels(self):
        _engine, tree, _arrivals = self.make_tree(8)
        assert tree.levels == 3
        assert tree.node_count == 7
        assert tree.request_path_latency_ps == 99_000

    def test_packet_reaches_root_with_level_latency(self):
        engine, tree, arrivals = self.make_tree(8)
        from repro.interconnect import VirtualChannel

        pkt = dma_read(0)
        tree.leaf_ingress(5)(pkt, VirtualChannel.VA, lambda r: None)
        engine.run()
        assert len(arrivals) == 1
        assert arrivals[0][0] >= 99_000  # 3 levels x 33 ns

    def test_fair_share_between_two_leaves(self):
        engine, tree, arrivals = self.make_tree(2)
        from repro.interconnect import VirtualChannel

        counts = {0: 0, 1: 0}

        def make_loop(leaf):
            ingress = tree.leaf_ingress(leaf)

            def issue(_response=None):
                counts[leaf] += 1
                pkt = dma_read(0)
                pkt.accel_id = leaf
                ingress(pkt, VirtualChannel.VA, issue)

            return issue

        make_loop(0)()
        make_loop(1)()
        engine.run(until_ps=2_000_000)
        assert counts[0] > 5
        assert abs(counts[0] - counts[1]) <= 2

    def test_invalid_leaf_rejected(self):
        from repro.errors import ConfigurationError

        _engine, tree, _ = self.make_tree(4)
        with pytest.raises(ConfigurationError):
            tree.leaf_ingress(4)


def make_optimus(n=2, **param_overrides):
    params = PlatformParams().copy(**param_overrides) if param_overrides else PlatformParams()
    return build_platform(params, n_accelerators=n, mode=PlatformMode.OPTIMUS)


def reference_mux_schedule(pushes, radix, period_ps, scale, latency_ps):
    """A straightforward round-robin multiplexer node, written for clarity:
    the oracle for the arbiter's single grant/forward/re-arm handler.

    ``pushes`` is ``[(time_ps, input, packet)]`` in arrival order; returns
    the ``(forward time, packet)`` sequence and the grants per input.  A push
    at the instant of a grant arrives first (it was scheduled earlier).
    """
    queues = [deque() for _ in range(radix)]
    grants, forwards = [0] * radix, []
    last, busy_until, grant_at = radix - 1, 0, None
    arrivals = deque(sorted(pushes, key=lambda push: push[0]))
    while arrivals or grant_at is not None:
        if grant_at is None or (arrivals and arrivals[0][0] <= grant_at):
            now, index, packet = arrivals.popleft()
            queues[index].append(packet)
            if grant_at is None:  # idle: next clock edge once the mux is free
                start = max(now, busy_until)
                grant_at = start + (-start) % period_ps
            continue
        now, grant_at = grant_at, None
        index = next(i % radix for i in range(last + 1, last + 1 + radix) if queues[i % radix])
        packet = queues[index].popleft()
        last = index
        grants[index] += 1
        forwards.append((now + latency_ps, packet))
        cycles = max(1, -(-packet.size // 64)) * scale
        if scale > 1.0 and packet.kind is PacketKind.DMA_WRITE_REQ:
            cycles = max(1.0, cycles * WRITE_ROOT_WEIGHT)
        busy_until = now + (period_ps if cycles <= 1.0 else round(period_ps * cycles))
        if any(queues):
            grant_at = busy_until
    return forwards, grants


#: The root pacing the platform builder derives from ``shell_accept_gbps``.
PLATFORM_ROOT_SCALE = (
    64.0 / gbps_to_bytes_per_ps(PlatformParams().shell_accept_gbps)
) / Clock(PlatformParams().interconnect_mhz).period_ps


class TestMuxNodeAgainstOracle:
    def test_platform_root_is_rate_paced(self):
        assert PLATFORM_ROOT_SCALE == pytest.approx(1.896, abs=1e-3)

    @given(
        radix=st.integers(min_value=2, max_value=4),
        scale=st.sampled_from([1.0, 0.5, PLATFORM_ROOT_SCALE]),
        latency_ps=st.sampled_from([0, 33_000]),
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60_000),  # push time (ps)
                st.integers(min_value=0, max_value=3),  # input (mod radix)
                st.booleans(),  # write?
                st.integers(min_value=1, max_value=4),  # cache lines
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_grant_forward_rearm_matches_straightforward_arbiter(
        self, radix, scale, latency_ps, schedule
    ):
        clock = Clock(400.0)
        engine = Engine()
        forwards = []
        node = MuxNode(
            engine, "node", radix, clock=clock, level_latency_ps=latency_ps,
            forward=lambda packet, *rest: forwards.append((engine.now, packet)),
            cost_per_line_cycles=scale,
        )
        pushes = []
        for time_ps, index, is_write, lines in sorted(schedule, key=lambda s: s[0]):
            make = dma_write if is_write else dma_read
            pushes.append((time_ps, index % radix, make(0, size=lines * 64)))
        for time_ps, index, packet in pushes:
            engine.call_at(time_ps, node.push, index, (packet, None, None))
        engine.run()
        expected_forwards, expected_grants = reference_mux_schedule(
            pushes, radix, clock.period_ps, scale, latency_ps
        )
        assert [(t, id(p)) for t, p in forwards] == [(t, id(p)) for t, p in expected_forwards]
        assert node.arbiter.grants_per_input == expected_grants


class TestVcuAndMonitor:
    def test_magic_and_count_registers(self):
        platform = make_optimus(4)
        shell = platform.shell
        # VCU management page sits right above the shell window.
        from repro.fpga.shell import SHELL_MMIO_BYTES

        assert shell.mmio_read(SHELL_MMIO_BYTES + REG_MAGIC) == VCU_MAGIC
        assert shell.mmio_read(SHELL_MMIO_BYTES + REG_NUM_ACCELS) == 4

    def test_offset_table_programming(self):
        platform = make_optimus(2)
        from repro.fpga.shell import SHELL_MMIO_BYTES

        def vcu_write(reg, value):
            platform.shell.mmio_write(SHELL_MMIO_BYTES + reg, value)

        vcu_write(REG_ACCEL_SELECT, 1)
        vcu_write(REG_WINDOW_BASE, 0x10000000)
        vcu_write(REG_WINDOW_SIZE, 64 * GB)
        vcu_write(REG_SLICE_BASE, 64 * GB + 128 * MB)
        auditor = platform.monitor.auditors[1]
        assert auditor.enabled
        assert auditor.offset == (64 * GB + 128 * MB) - 0x10000000

    def test_reset_table_pulses_socket_reset(self):
        platform = make_optimus(2)
        from repro.fpga.shell import SHELL_MMIO_BYTES

        platform.shell.mmio_write(SHELL_MMIO_BYTES + REG_RESET, 0)
        assert platform.sockets[0].reset_count == 1
        assert platform.sockets[1].reset_count == 0

    def test_accel_mmio_routing(self):
        platform = make_optimus(2)
        from repro.fpga.shell import SHELL_MMIO_BYTES

        base1 = SHELL_MMIO_BYTES + accel_mmio_base(1)
        platform.shell.mmio_write(base1 + 0x40, 777)
        assert platform.sockets[1].mmio_read(0x40) == 777
        assert platform.sockets[0].mmio_read(0x40) == 0
        assert platform.shell.mmio_read(base1 + 0x40) == 777

    def test_monitor_footprint_is_under_7_percent(self):
        platform = make_optimus(8)
        fp = platform.monitor.footprint
        assert fp.alm_pct < 7.0
        assert fp.bram_pct < 1.0


class TestAuditorIsolation:
    def test_dma_inside_window_translates_and_completes(self):
        platform = make_optimus(2)
        engine = platform.engine
        auditor = platform.monitor.auditors[0]
        auditor.configure_window(gva_base=0, window_size=2 * PAGE_SIZE_2M, iova_base=0)
        platform.iommu.map(0, 0)
        platform.dram.write_now(128, b"A" * 64)
        future = platform.sockets[0].dma.read(128)
        result = engine.run_until(future)
        assert result == b"A" * 64

    def test_dma_outside_window_is_discarded(self):
        platform = make_optimus(2)
        engine = platform.engine
        auditor = platform.monitor.auditors[0]
        auditor.configure_window(gva_base=0, window_size=PAGE_SIZE_2M, iova_base=0)
        future = platform.sockets[0].dma.read(PAGE_SIZE_2M + 64)  # beyond window
        result = engine.run_until(future)
        assert result is None
        assert auditor.counters.get("dma_dropped_window") == 1

    def test_disabled_auditor_blocks_everything(self):
        platform = make_optimus(2)
        engine = platform.engine
        future = platform.sockets[0].dma.read(0)
        result = engine.run_until(future)
        assert result is None
        assert platform.monitor.auditors[0].counters.get("dma_dropped_disabled") == 1

    def test_offset_relocates_gva_into_slice(self):
        platform = make_optimus(2)
        engine = platform.engine
        slice_base = 64 * GB + 128 * MB  # accelerator 1's slice
        auditor = platform.monitor.auditors[1]
        auditor.configure_window(gva_base=0, window_size=PAGE_SIZE_2M, iova_base=slice_base)
        platform.iommu.map(slice_base, 3 * PAGE_SIZE_2M)
        platform.dram.write_now(3 * PAGE_SIZE_2M, b"B" * 64)
        future = platform.sockets[1].dma.read(0)
        assert engine.run_until(future) == b"B" * 64

    def test_two_guests_same_gva_are_isolated(self):
        """The core isolation property: identical GVAs, different data."""
        platform = make_optimus(2)
        engine = platform.engine
        layout = default_layout(PAGE_SIZE_2M)
        for idx in (0, 1):
            s = layout.slice_for(idx)
            platform.monitor.auditors[idx].configure_window(
                gva_base=0, window_size=PAGE_SIZE_2M, iova_base=s.iova_base
            )
            platform.iommu.map(s.iova_base, (10 + idx) * PAGE_SIZE_2M)
            platform.dram.write_now((10 + idx) * PAGE_SIZE_2M, bytes([idx]) * 64)
        f0 = platform.sockets[0].dma.read(0)
        f1 = platform.sockets[1].dma.read(0)
        engine.run()
        assert f0.result() == bytes([0]) * 64
        assert f1.result() == bytes([1]) * 64

    def test_foreign_response_discarded_by_tag(self):
        platform = make_optimus(2)
        auditor = platform.monitor.auditors[0]
        foreign = dma_read(0, space=AddressSpace.IOVA).make_response(data=b"x" * 64)
        foreign.accel_id = 1  # tagged for the other accelerator
        delivered = []
        auditor.deliver_response(foreign, delivered.append)
        platform.engine.run()
        assert delivered == [None]
        assert auditor.counters.get("response_discarded_foreign") == 1
