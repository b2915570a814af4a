"""The per-line event *schedule* is pinned, not just the result digest.

Four small datapath cells run a fixed warm-up and then a fixed window;
the test pins, for the window,

* ``engine.now`` at its end,
* the ``Engine._sequence`` delta — events **scheduled**,
* ``Engine.run``'s return value — events **dispatched**,
* the SHA-256 of the canonical JSON of ``platform.metrics.snapshot()``.

An equal sequence delta proves no event was added or removed; the digest
proves none moved (every meter, latency sample and IOTLB counter is a
function of the instants the events fired at).  The values were recorded
from a clean checkout of commit 828ad4a — the parent of the change that
flattened the per-line DMA chain into continuations — before any edit, so
they describe the reference chain, not whatever the code does today.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.accel.base import AcceleratorProfile
from repro.accel.membench import MODE_READ, MODE_WRITE
from repro.accel.streaming import REG_LEN, REG_SRC, StreamingJob
from repro.envelope import canonical_json
from repro.experiments.harness import make_stack
from repro.fpga.resources import ResourceFootprint
from repro.guest import NativeAccelerator
from repro.hv import PassthroughHypervisor
from repro.mem import GB, MB, PAGE_SIZE_2M
from repro.platform import PlatformMode, PlatformParams, build_platform
from repro.sim.clock import us


def _optimus(launches):
    stack = make_stack("optimus", PlatformParams(page_size=PAGE_SIZE_2M), n_accelerators=8)
    for index, (name, working_set, job_kwargs) in enumerate(launches):
        stack.launch(
            name,
            physical_index=index,
            working_set=working_set,
            job_kwargs={"functional": False, **job_kwargs},
        )
    return stack.platform


def _membench_hit():
    return _optimus([("MB", 64 * MB, {"seed": 7, "mode": MODE_READ})])


def _membench_thrash():
    return _optimus(
        [("MB", 1 * GB, {"seed": 7 + 104729 * i, "mode": MODE_WRITE}) for i in range(4)]
    )


def _linkedlist_chase():
    return _optimus([("LL", 1 * GB, {"seed": 7 + 31 * i}) for i in range(4)])


class _Reader(StreamingJob):
    profile = AcceleratorProfile(
        name="RD0",
        description="compute-bound streaming reader (schedule pin)",
        loc_verilog=0,
        freq_mhz=400.0,
        footprint=ResourceFootprint(alm_pct=1.0, bram_pct=1.0),
        max_outstanding=64,
    )
    bytes_per_cycle = 4.0
    output_ratio = 0.0
    tile_lines = 64
    prefetch_tiles = 2


def _stream_reference():
    params = PlatformParams(speculative_region_opt=False, fast_path=False)
    platform = build_platform(params, mode=PlatformMode.PASSTHROUGH)
    hypervisor = PassthroughHypervisor(platform)
    handle = NativeAccelerator(hypervisor, window_bytes=64 * MB)
    src = handle.alloc_buffer(8 * MB)
    job = _Reader(functional=False)
    job.regs.update({REG_SRC: src, REG_LEN: 8 * MB})
    hypervisor.start_job(job)
    return platform


#: name -> (build, warm-up us, window us,
#:          now_ps, events scheduled, events dispatched, metrics digest)
CELLS = {
    "membench_hit": (
        _membench_hit, 20, 12,
        32_000_000, 35_644, 35_756,
        "7f909a594245ee415cff051dd894507346a9daf6ea419514ef1e2e8de7930708",
    ),
    "membench_thrash": (
        _membench_thrash, 30, 25,
        55_000_000, 25_061, 25_061,
        "1e5e10f2be1541274b6ae08e3475267177d6c6673f8f78df89dd35e5f5675d54",
    ),
    "linkedlist_chase": (
        _linkedlist_chase, 400, 400,
        800_000_000, 17_906, 17_906,
        "4c219a8cd347480bff46ff17982a591ab8d53c2f445de56ccd6be6f13b4fa9e2",
    ),
    "stream_reference": (
        _stream_reference, 20, 100,
        120_000_000, 15_015, 15_015,
        "7c7251af8c2ba24f97bfd99852a32e96359c2f53f17b690c60975fbc83b24b0d",
    ),
}


def measure(name: str):
    build, warmup_us, window_us = CELLS[name][:3]
    platform = build()
    engine = platform.engine
    engine.run(until_ps=engine.now + us(warmup_us))
    platform.metrics.reset()
    scheduled_before = engine._sequence
    dispatched = engine.run(until_ps=engine.now + us(window_us))
    digest = hashlib.sha256(
        canonical_json(platform.metrics.snapshot()).encode()
    ).hexdigest()
    return engine.now, engine._sequence - scheduled_before, dispatched, digest


@pytest.mark.parametrize("name", sorted(CELLS))
def test_event_schedule_matches_the_recorded_reference_chain(name):
    now_ps, scheduled, dispatched, digest = measure(name)
    expected = CELLS[name][3:]
    assert (now_ps, scheduled, dispatched, digest) == expected


if __name__ == "__main__":  # prints the tuples to paste into CELLS
    import time

    for cell in sorted(CELLS):
        began = time.perf_counter()
        print(cell, measure(cell), f"{time.perf_counter() - began:.2f}s")
