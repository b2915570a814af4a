"""Unit tests for AFU sockets, DMA engines, resources, and synthesis."""

import pytest

from repro.errors import ConfigurationError, MmioFault, SynthesisError
from repro.fpga import (
    AfuSocket,
    RegisterFile,
    ResourceFootprint,
    SHELL_FOOTPRINT,
    SynthesisCharacter,
    flat_mux_fmax_mhz,
    monitor_footprint,
    mux_levels,
    plan_mux_tree,
    replicated_footprint,
    synthesize,
)
from repro.interconnect import VirtualChannel
from repro.sim import Clock, Engine
from repro.sim.packet import PacketKind


class TestRegisterFile:
    def test_plain_read_write(self):
        regs = RegisterFile("t")
        regs.write(0x10, 123)
        assert regs.read(0x10) == 123

    def test_unwritten_register_reads_zero(self):
        regs = RegisterFile("t")
        assert regs.read(0x20) == 0

    def test_write_hook_fires(self):
        regs = RegisterFile("t")
        seen = []
        regs.define(0x8, on_write=seen.append)
        regs.write(0x8, 55)
        assert seen == [55]

    def test_read_hook_overrides_value(self):
        regs = RegisterFile("t")
        regs.define(0x8, on_read=lambda: 99)
        regs.write(0x8, 1)
        assert regs.read(0x8) == 99

    def test_misaligned_or_out_of_page_offsets_fault(self):
        regs = RegisterFile("t")
        with pytest.raises(MmioFault):
            regs.read(0x7)
        with pytest.raises(MmioFault):
            regs.write(0x1000, 0)

    def test_snapshot_restore_round_trip(self):
        regs = RegisterFile("t")
        regs.write(0x0, 1)
        regs.write(0x8, 2)
        snap = regs.snapshot()
        regs.clear()
        assert regs.read(0x0) == 0
        regs.restore(snap)
        assert regs.read(0x8) == 2


class FakeSink:
    """A DMA sink that answers every request after a fixed delay."""

    def __init__(self, engine, delay_ps=1000):
        self.engine = engine
        self.delay_ps = delay_ps
        self.packets = []

    def __call__(self, packet, channel, on_response):
        self.packets.append((packet, channel))
        if packet.kind is PacketKind.DMA_READ_REQ:
            response = packet.make_response(data=bytes(packet.size))
        else:
            response = packet.make_response()
        self.engine.call_after(self.delay_ps, on_response, response)


class TestDmaEngine:
    def make_socket(self, engine, issue_interval=2, max_outstanding=4):
        socket = AfuSocket(
            engine, 0, clock=Clock(400.0),
            issue_interval_cycles=issue_interval,
            max_outstanding=max_outstanding,
        )
        sink = FakeSink(engine)
        socket.connect(sink)
        return socket, sink

    def test_read_resolves_with_data(self):
        engine = Engine()
        socket, _sink = self.make_socket(engine)
        future = socket.dma.read(0x100)
        result = engine.run_until(future)
        assert result == bytes(64)

    def test_issue_throttle_spaces_requests(self):
        engine = Engine()
        socket, sink = self.make_socket(engine, issue_interval=2)
        for i in range(4):
            socket.dma.read(i * 64)
        engine.run()
        issue_times = [p.issued_at_ps for p, _c in sink.packets]
        gaps = [b - a for a, b in zip(issue_times, issue_times[1:])]
        assert all(gap >= 5000 for gap in gaps)  # 2 cycles @ 400 MHz

    def test_window_limits_outstanding(self):
        engine = Engine()
        socket, sink = self.make_socket(engine, issue_interval=1, max_outstanding=2)
        sink.delay_ps = 1_000_000  # slow responses
        for i in range(6):
            socket.dma.read(i * 64)
        engine.run(until_ps=500_000)
        assert len(sink.packets) == 2  # only the window's worth issued

    def test_multi_line_packet_throttled_per_line(self):
        engine = Engine()
        socket, sink = self.make_socket(engine, issue_interval=2)
        socket.dma.write(0, size=256)  # 4 lines -> 8-cycle hold
        socket.dma.write(1024, size=64)
        engine.run()
        t0, t1 = (p.issued_at_ps for p, _c in sink.packets)
        assert t1 - t0 >= 8 * 2500

    def test_drain_completes_when_idle(self):
        engine = Engine()
        socket, _sink = self.make_socket(engine)
        socket.dma.read(0)
        drained = socket.dma.drain()
        engine.run_until(drained)
        assert socket.dma.outstanding == 0

    def test_reset_abandons_queued_requests(self):
        engine = Engine()
        socket, sink = self.make_socket(engine, issue_interval=1, max_outstanding=1)
        sink.delay_ps = 10_000_000
        first = socket.dma.read(0)
        queued = socket.dma.read(64)
        engine.run(until_ps=100_000)
        socket.reset()
        engine.run(until_ps=200_000)
        assert queued.done() and queued.result() is None
        assert socket.reset_count == 1


class TestResources:
    def test_footprint_arithmetic(self):
        a = ResourceFootprint(10.0, 5.0)
        b = ResourceFootprint(2.5, 1.0)
        assert (a + b).alm_pct == 12.5
        assert (2 * b).bram_pct == 2.0

    def test_monitor_footprint_matches_table2(self):
        # 8 accelerators behind a 3-level binary tree (7 nodes): Table 2
        # reports 6.16% ALM / 0.48% BRAM for the hardware monitor.
        fp = monitor_footprint(8, 7)
        assert fp.alm_pct == pytest.approx(6.16, abs=0.01)
        assert fp.bram_pct == pytest.approx(0.48, abs=0.01)

    def test_shell_footprint_matches_table2(self):
        assert SHELL_FOOTPRINT.alm_pct == pytest.approx(23.44)
        assert SHELL_FOOTPRINT.bram_pct == pytest.approx(6.57)


class TestSynthesis:
    def test_replication_normal_slightly_superlinear(self):
        base = ResourceFootprint(3.0, 2.0)
        fp8 = replicated_footprint(base, 8, SynthesisCharacter.NORMAL)
        assert fp8.alm_pct > 8 * base.alm_pct
        assert fp8.alm_pct < 8.5 * base.alm_pct

    def test_replication_simple_sublinear(self):
        base = ResourceFootprint(0.83, 0.0)
        fp8 = replicated_footprint(base, 8, SynthesisCharacter.SIMPLE)
        assert fp8.alm_pct == pytest.approx(6 * base.alm_pct, rel=0.01)

    def test_replication_trivial_can_shrink(self):
        base = ResourceFootprint(0.15, 0.0)
        fp8 = replicated_footprint(base, 8, SynthesisCharacter.TRIVIAL)
        assert fp8.alm_pct < 8 * base.alm_pct

    def test_flat_mux_cannot_close_timing_at_400mhz(self):
        assert flat_mux_fmax_mhz(2) >= 400.0
        assert flat_mux_fmax_mhz(8) < 400.0
        with pytest.raises(SynthesisError):
            plan_mux_tree(8, radix=8, target_mhz=400.0)

    def test_binary_tree_for_8_accels_has_3_levels(self):
        arrangement = plan_mux_tree(8, radix=2, target_mhz=400.0)
        assert arrangement.levels == 3
        assert arrangement.node_count == 7

    def test_level_count_is_exact_at_powers_of_the_radix(self):
        # Float logarithms read one level too many at 5**3 and 6**3.
        for n, radix, levels in ((1, 2, 1), (2, 2, 1), (3, 2, 2), (125, 5, 3),
                                 (126, 5, 4), (216, 6, 3), (217, 6, 4)):
            assert mux_levels(n, radix) == levels

    def test_synthesize_rejects_ninth_accelerator(self):
        base = ResourceFootprint(1.0, 1.0)
        with pytest.raises(SynthesisError):
            synthesize([base] * 9, [SynthesisCharacter.NORMAL] * 9)

    def test_synthesize_rejects_overfull_device(self):
        base = ResourceFootprint(15.0, 1.0)
        with pytest.raises(SynthesisError):
            synthesize([base] * 8, [SynthesisCharacter.NORMAL] * 8)

    def test_synthesize_full_report(self):
        base = ResourceFootprint(3.62, 2.82)  # AES from Table 2
        report = synthesize([base] * 8, [SynthesisCharacter.NORMAL] * 8)
        assert report.fits
        assert report.monitor.alm_pct == pytest.approx(6.16, abs=0.01)
        assert report.accelerators.alm_pct == pytest.approx(28.96, rel=0.05)

    def test_passthrough_synthesis_has_no_monitor(self):
        base = ResourceFootprint(3.62, 2.82)
        report = synthesize(
            [base], [SynthesisCharacter.NORMAL], with_monitor=False
        )
        assert report.monitor.alm_pct == 0.0
