"""Declared job state: sufficient in every environment, and small enough.

Each job class declares its architected state once
(``AcceleratorJob.state_fields``) and the base class packs it.  The
declaration must be *minimal* (it fits the guest's state buffer, §4.2)
and *sufficient* (SYNERGY's rule: everything live at a switch is in it).
The transparency matrix checks sufficiency: every functional Table 1 job
(the twelve real-world benchmarks; MemBench and LinkedList compute
nothing a guest reads back, so their layouts are pinned below instead)
runs in seven environments, and its output must equal the kernel
reference in each.

* ``optimus`` — alone on one OPTIMUS slot;
* ``passthrough`` — on the pass-through baseline;
* ``timeshared`` — sharing its slot with a MemBench co-tenant at a short
  slice, so it is preempted and resumed in place;
* ``restore`` — checkpointed at a Hypothesis-drawn instant of its run,
  and restored (``restore_guest``) into a job
  built fresh from the checkpoint's type and constructor arguments;
* ``rewrite-restore`` — the same, but the quiesced guest rewrites its
  BAR2 window and registers its buffers again (DESIGN.md §12) before the
  checkpoint is taken;
* ``migrate`` — moved to another slot mid-run (``hv/migration.py``);
* ``nested`` — an L2 guest of a nested hypervisor (``hv/nested.py``).
"""

import hashlib
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Dict, Union

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accel import CATALOG, REAL_WORLD, make_job
from repro.accel.linkedlist import LinkedListJob
from repro.accel.md5 import Md5Job
from repro.accel.membench import MemBenchJob
from repro.accel.sssp import SsspJob
from repro.accel.streaming import REG_DST, REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.faults.guests import HangJob, RunawayDmaJob
from repro.guest import GuestAccelerator
from repro.hv import (
    BAR2_WINDOW_SIZE,
    OptimusHypervisor,
    PassthroughHypervisor,
    checkpoint_guest,
    quiesce_guest,
    restore_guest,
)
from repro.hv.mdev import VAccelState
from repro.hv.nested import NestedHypervisor
from repro.kernels import (
    GaussianGenerator,
    ReedSolomon,
    best_score,
    encrypt_ecb,
    fir_filter,
    gaussian_blur,
    grayscale,
    lowpass_taps,
    mine,
    random_graph,
    sobel,
    sssp_dijkstra,
)
from repro.kernels.bitcoin import BlockHeader, easy_target
from repro.mem import MB
from repro.platform import PlatformMode, PlatformParams, build_platform
from repro.sim.clock import ms, us

#: Streaming inputs span three 4 KB tiles: two switch points mid-stream.
TILE = 4096
STREAM = 3 * TILE
LIMIT_PS = ms(200)
WINDOW = 8 * MB
#: Short slices: a switch (and so a quiesce or a migration) lands within
#: microseconds of its request, mid-run.
SLICE_PS = us(2)


@dataclass
class Case:
    """One job's inputs, registers and expected output."""

    #: Buffer name -> contents, or a size to allocate zeroed.
    inputs: Dict[str, Union[bytes, int]]
    #: Allocated GVAs -> application-register writes.
    registers: Callable[[Dict[str, int]], Dict[int, int]]
    #: ``(read, bufs, job)`` -> the output the guest observes.
    observe: Callable
    expected: object
    job_kwargs: dict = field(default_factory=dict)


def _reads(buffer: str, size: int) -> Callable:
    return lambda read, bufs, _job: read(bufs[buffer], size)


def _stream(data: bytes, out_bytes: int, expected: bytes, **extra) -> Case:
    """A src -> dst streaming case."""
    params = extra.pop("params", {})
    return Case(
        inputs={"src": data, "dst": max(out_bytes, 64)},
        registers=lambda b: {REG_SRC: b["src"], REG_DST: b["dst"], REG_LEN: len(data), **params},
        observe=_reads("dst", out_bytes),
        expected=expected,
        **extra,
    )


def _tiled_stencil(kernel, image: np.ndarray, rows_per_tile: int) -> np.ndarray:
    """The stencil as the line buffers apply it: each tile sees the two
    rows above it and no row below."""
    out = []
    for start in range(0, len(image), rows_per_tile):
        history = min(2, start)
        out.append(kernel(image[start - history : start + rows_per_tile])[history:])
    return np.vstack(out)


def _aes() -> Case:
    key = bytes(range(100, 116))
    data = bytes((i * 7 + 3) & 0xFF for i in range(STREAM))
    return _stream(data, STREAM, encrypt_ecb(key, data), job_kwargs={"key": key})


def _md5() -> Case:
    data = bytes((i * 13) & 0xFF for i in range(STREAM))
    records = b"".join(
        hashlib.md5(data[i : i + TILE]).digest() + bytes(48) for i in range(0, STREAM, TILE)
    )
    return _stream(data, len(records), records)


def _sha() -> Case:
    # Not a whole number of 128 B blocks: the last tile leaves a partial one.
    data = bytes((i * 31 + 7) & 0xFF for i in range(STREAM + 64))
    return _stream(data, 64, hashlib.sha512(data).digest())


def _fir() -> Case:
    samples = np.random.RandomState(7).randint(-20000, 20000, STREAM // 2).astype(np.int16)
    expected = fir_filter(samples, lowpass_taps(16)).tobytes()
    return _stream(samples.tobytes(), STREAM, expected)


def _grn() -> Case:
    return Case(
        inputs={"dst": STREAM},
        registers=lambda b: {REG_DST: b["dst"], REG_LEN: STREAM},
        observe=_reads("dst", STREAM),
        expected=GaussianGenerator().block(STREAM // 4).tobytes(),
    )


def _rsd() -> Case:
    rs = ReedSolomon(255, 223)
    messages = [bytes((i * 31 + j) % 256 for j in range(223)) for i in range(40)]
    records = b"".join(
        rs.corrupt(rs.encode(m), [(i * 17 + k * 11) % 255 for k in range(5)]) + bytes(1)
        for i, m in enumerate(messages)
    )
    expected = b"".join(m + bytes(33) for m in messages)
    return _stream(records, len(records), expected)


def _sw() -> Case:
    from repro.accel.sw import decode_sequence

    query = "GATTACAGATTACA"
    raw = np.random.RandomState(11).randint(1, 256, size=(STREAM // 64, 60))
    records = b"".join(bytes(row.tolist()) + bytes(4) for row in raw)
    scores = [best_score(query, decode_sequence(records[i : i + 60])) for i in range(0, STREAM, 64)]
    packed = struct.pack(f"<{len(scores)}I", *scores)
    return _stream(records, len(packed), packed, job_kwargs={"query": query})


def _image(kernel) -> Case:
    width = 64
    image = np.random.RandomState(5).randint(0, 256, size=(STREAM // width, width)).astype(np.uint8)
    expected = _tiled_stencil(kernel, image, TILE // width).tobytes()
    return _stream(image.tobytes(), STREAM, expected, params={REG_PARAM0: width})


def _grs() -> Case:
    rgba = np.random.RandomState(3).randint(0, 256, size=(STREAM // 128, 32, 4)).astype(np.uint8)
    return _stream(rgba.tobytes(), STREAM // 4, grayscale(rgba).tobytes())


def _sssp() -> Case:
    graph = random_graph(120, 700, seed=9)
    size = 4 * graph.n_vertices
    return Case(
        inputs={"graph": graph.serialize(), "dist": size + 64},
        registers=lambda b: {
            REG_SRC: b["graph"], REG_DST: b["dist"],
            REG_PARAM0: graph.n_vertices, REG_PARAM1: 0,
        },
        observe=_reads("dist", size),
        expected=sssp_dijkstra(graph, 0).astype("<u4").tobytes(),
    )


def _btc() -> Case:
    header = BlockHeader(
        version=2, prev_hash=bytes(32), merkle_root=bytes(range(32)),
        timestamp=1_600_000_000, bits=0x1D00FFFF,
    )
    nonce = mine(header, easy_target(10), max_attempts=1 << 16)
    return Case(
        inputs={"hdr": header.serialize(0) + bytes(48), "out": 64},
        registers=lambda b: {
            REG_SRC: b["hdr"], REG_DST: b["out"], REG_PARAM0: 10, REG_PARAM1: 1 << 16,
        },
        observe=_reads("out", 8),
        expected=struct.pack("<q", nonce),
    )


CASES = {
    "AES": _aes, "MD5": _md5, "SHA": _sha, "FIR": _fir, "GRN": _grn,
    "RSD": _rsd, "SW": _sw, "GAU": lambda: _image(gaussian_blur), "GRS": _grs,
    "SBL": lambda: _image(sobel), "SSSP": _sssp, "BTC": _btc,
}
assert list(CASES) == REAL_WORLD


@lru_cache(maxsize=None)
def case_of(name: str) -> Case:
    return CASES[name]()


@pytest.fixture(autouse=True, scope="module")
def short_btc_batches():
    """BTC checks for preemption every 128 attempts instead of 4096, so
    its 487-attempt search crosses switch points."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.accel.btc.ATTEMPT_BATCH", 128)
        yield


# -- environments ---------------------------------------------------------------------


def _fresh_job(name: str):
    return make_job(name, **case_of(name).job_kwargs)


def _optimus(n_accelerators: int = 1, **params):
    platform = build_platform(PlatformParams(**params), n_accelerators=n_accelerators)
    return platform, OptimusHypervisor(platform)


def _load(guest, case: Case) -> Dict[str, int]:
    bufs = {}
    for buffer, content in case.inputs.items():
        size = content if isinstance(content, int) else len(content)
        bufs[buffer] = guest.alloc_buffer(size)
        if not isinstance(content, int):
            guest.write_buffer(bufs[buffer], content)
    return bufs


def _launch(hv, name: str, *, tenant: str = "tenant"):
    vm = hv.create_vm(tenant)
    job = _fresh_job(name)
    vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=WINDOW)
    bufs = _load(handle, case_of(name))
    for reg, value in case_of(name).registers(bufs).items():
        handle.mmio_write(reg, value)
    return job, vaccel, handle, bufs


def _finish(engine, job) -> None:
    if not job.done:
        engine.run_until(job.completion, limit_ps=engine.now + LIMIT_PS)
    assert job.done


def run_optimus(name: str):
    platform, hv = _optimus()
    job, _vaccel, handle, bufs = _launch(hv, name)
    handle.start()
    _finish(platform.engine, job)
    return case_of(name).observe(handle.read_buffer, bufs, job)


def run_passthrough(name: str):
    platform = build_platform(PlatformParams(), mode=PlatformMode.PASSTHROUGH)
    hv = PassthroughHypervisor(platform)
    handle = hv.connect(window_bytes=WINDOW)
    job = _fresh_job(name)
    bufs = _load(handle, case_of(name))
    job.configure(case_of(name).registers(bufs))
    hv.start_job(job)
    _finish(platform.engine, job)
    return case_of(name).observe(handle.read_buffer, bufs, job)


def _start_cotenant(hv) -> None:
    """An endless MemBench sharing slot 0."""
    vm = hv.create_vm("cotenant")
    vaccel = hv.create_virtual_accelerator(vm, MemBenchJob(), physical_index=0)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=WINDOW)
    working_set = handle.alloc_buffer(1 * MB)
    for reg, value in {REG_SRC: working_set, REG_LEN: 1 * MB, REG_PARAM1: 0}.items():
        handle.mmio_write(reg, value)
    handle.start()


def run_timeshared(name: str):
    platform, hv = _optimus(time_slice_ps=SLICE_PS)
    job, vaccel, handle, bufs = _launch(hv, name)
    _start_cotenant(hv)
    handle.start()
    _finish(platform.engine, job)
    assert vaccel.preempt_count > 0
    return case_of(name).observe(handle.read_buffer, bufs, job)


@lru_cache(maxsize=None)
def solo_span_ps(name: str) -> int:
    """How long the job runs alone once it is first switched in."""
    platform, hv = _optimus()
    job, vaccel, handle, _bufs = _launch(hv, name)
    handle.start()
    _run_until_scheduled(platform, vaccel)
    scheduled_ps = platform.engine.now
    _finish(platform.engine, job)
    return platform.engine.now - scheduled_ps


def _run_until_scheduled(platform, vaccel) -> None:
    while vaccel.state is not VAccelState.SCHEDULED:
        platform.run_for(us(1))


def run_restored(name: str, permille: int, *, rewrite: bool = False):
    platform, hv = _optimus(time_slice_ps=SLICE_PS)
    job, vaccel, handle, bufs = _launch(hv, name)
    handle.start()
    _run_until_scheduled(platform, vaccel)
    platform.run_for(solo_span_ps(name) * permille // 1000)
    if rewrite:
        quiesce_guest(hv, vaccel)
        hv.guest_bar2_write(vaccel, BAR2_WINDOW_SIZE, vaccel.window_size)
        assert not vaccel.mapped_gvas
        for buffer, content in case_of(name).inputs.items():
            size = content if isinstance(content, int) else len(content)
            handle.driver.make_region_accessible(bufs[buffer], size)
    checkpoint = checkpoint_guest(hv, vaccel)
    assume(not checkpoint.done)  # restore a running job, not its output
    platform_b, hv_b = _optimus()
    job_b = make_job(checkpoint.accel_type, **dict(checkpoint.job_kwargs))
    vm_b, _vaccel_b = restore_guest(hv_b, checkpoint, job_b)
    _finish(platform_b.engine, job_b)
    return case_of(name).observe(vm_b.read_memory, bufs, job_b)


def run_migrated(name: str):
    platform, hv = _optimus(n_accelerators=2, time_slice_ps=SLICE_PS)
    job, vaccel, handle, bufs = _launch(hv, name)
    handle.start()
    _run_until_scheduled(platform, vaccel)
    platform.run_for(solo_span_ps(name) // 10)
    moved = hv.migrate_virtual_accelerator(vaccel, 1)
    platform.engine.run_until(moved, limit_ps=platform.engine.now + LIMIT_PS)
    assert not job.done and vaccel.physical_index == 1
    _finish(platform.engine, job)
    return case_of(name).observe(handle.read_buffer, bufs, job)


def run_nested(name: str):
    platform, hv = _optimus()
    vm = hv.create_vm("l1")
    job = _fresh_job(name)
    vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=2 * WINDOW)
    guest = NestedHypervisor(handle, sub_slice_bytes=WINDOW).create_sub_guest()
    bufs = _load(guest, case_of(name))
    l1_bufs = {buffer: guest.l2_to_l1(gva) for buffer, gva in bufs.items()}
    for reg, value in case_of(name).registers(l1_bufs).items():
        handle.mmio_write(reg, value)
    handle.start()
    _finish(platform.engine, job)
    return case_of(name).observe(guest.read_buffer, bufs, job)


ENVIRONMENTS = {
    "optimus": lambda name, data: run_optimus(name),
    "passthrough": lambda name, data: run_passthrough(name),
    "timeshared": lambda name, data: run_timeshared(name),
    "restore": lambda name, data: run_restored(name, data.draw(PERMILLE, "permille")),
    "rewrite-restore": lambda name, data: run_restored(
        name, data.draw(PERMILLE, "permille"), rewrite=True
    ),
    "migrate": lambda name, data: run_migrated(name),
    "nested": lambda name, data: run_nested(name),
}

#: Where in the job's solo run the checkpoint lands, per mille.
PERMILLE = st.integers(min_value=0, max_value=999)

@pytest.mark.parametrize(
    "name, env",
    [pytest.param(name, env, id=f"{name}-{env}") for name in REAL_WORLD for env in ENVIRONMENTS],
)
@settings(max_examples=5)
@given(data=st.data())
def test_job_output_matches_the_kernel_reference(name, env, data):
    assert ENVIRONMENTS[env](name, data) == case_of(name).expected


# -- layout and size ----------------------------------------------------------------


def _sample(code: str, seed: int):
    """A distinctive value for one declared field."""
    count = len(struct.unpack("<" + code, bytes(struct.calcsize("<" + code))))
    if code.endswith("s"):
        return bytes((seed + i) & 0xFF for i in range(struct.calcsize(code)))
    if code.endswith("h"):
        values = [seed * 100 - i for i in range(count)]
    else:
        values = [seed * 0x1_0000_0001 + i for i in range(count)]
    return tuple(values) if count > 1 else values[0]


def _set(job, path: str, value) -> None:
    owner, _, attr = path.rpartition(".")
    setattr(attrgetter(owner)(job) if owner else job, attr, value)


def _le(*values: int) -> bytes:
    return b"".join(value.to_bytes(8, "little") for value in values)


#: Experiment digests depend on these layouts: the three jobs a shipped
#: experiment preempts.  Values are ``_sample``'s for fields 1, 2, 3.
PINNED_LAYOUTS = {
    MemBenchJob: _le(0x1_0000_0001, 0x2_0000_0002),  # ops_done, rng.state
    LinkedListJob: _le(0x1_0000_0001, 0x2_0000_0002, 0x3_0000_0003),  # next, hops, rng
    Md5Job: _le(0x1_0000_0001),  # cursor
}


@pytest.mark.parametrize(
    "job_class",
    [job_class for _profile, job_class in CATALOG.values()] + [HangJob, RunawayDmaJob],
    ids=lambda job_class: job_class.__name__,
)
def test_declared_state_fits_and_restores_into_a_fresh_job(job_class):
    job = job_class()
    for index, (path, code) in enumerate(job_class.state_fields, start=1):
        _set(job, path, _sample(code, index))
    saved = job.save_state()
    assert len(saved) <= job.profile.state_bytes
    if job_class in PINNED_LAYOUTS:
        assert saved == PINNED_LAYOUTS[job_class]
    # Every field reaches a fresh job, so a MemBench address stream
    # continues where the saved one stopped.
    fresh = job_class()
    fresh.restore_state(saved)
    for path, _code in job_class.state_fields:
        assert attrgetter(path)(fresh) == attrgetter(path)(job)
    if job_class is MemBenchJob:
        assert [fresh.rng.next_u64() for _ in range(8)] == [
            job.rng.next_u64() for _ in range(8)
        ]


# -- regressions ----------------------------------------------------------------------


def test_sssp_preempted_with_a_wide_frontier_matches_a_solo_run():
    graph = random_graph(2000, 8000, seed=3)  # the frontier peaks near 1,000
    image = graph.serialize()

    def run(*, shared: bool):
        platform, hv = _optimus(time_slice_ps=us(5))
        vm = hv.create_vm("sssp")
        job = SsspJob(functional=True)
        vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
        handle = GuestAccelerator(hv, vm, vaccel, window_bytes=WINDOW)
        src = handle.alloc_buffer(len(image))
        dist = handle.alloc_buffer(4 * graph.n_vertices + 64)
        handle.write_buffer(src, image)
        for reg, value in {REG_SRC: src, REG_DST: dist,
                           REG_PARAM0: graph.n_vertices, REG_PARAM1: 0}.items():
            handle.mmio_write(reg, value)
        frontiers = []
        save = job.save_state

        def recording_save():
            frontiers.append(len(job.frontier))
            return save()

        job.save_state = recording_save
        if shared:
            _start_cotenant(hv)
        handle.start()
        _finish(platform.engine, job)
        return handle.read_buffer(dist, 4 * graph.n_vertices), frontiers

    solo, solo_frontiers = run(shared=False)
    shared, frontiers = run(shared=True)
    assert not solo_frontiers and max(frontiers) > 500
    assert shared == solo == sssp_dijkstra(graph, 0).astype("<u4").tobytes()


def test_sssp_restored_mid_run_resumes_from_its_distance_array():
    platform, hv = _optimus(time_slice_ps=SLICE_PS)
    job, vaccel, handle, bufs = _launch(hv, "SSSP")
    handle.start()
    _run_until_scheduled(platform, vaccel)
    platform.run_for(solo_span_ps("SSSP") // 2)
    checkpoint = checkpoint_guest(hv, vaccel)
    assert checkpoint.state_saved and not checkpoint.done and job.rounds > 0
    _platform_b, hv_b = _optimus()
    restored = make_job(checkpoint.accel_type, **dict(checkpoint.job_kwargs))
    vm_b, _vaccel_b = restore_guest(hv_b, checkpoint, restored)
    _finish(_platform_b.engine, restored)
    # A from-source run, for the count of edges it relaxes.
    platform_c, hv_c = _optimus()
    from_source, _vaccel_c, handle_c, _bufs_c = _launch(hv_c, "SSSP")
    handle_c.start()
    _finish(platform_c.engine, from_source)
    assert 0 < restored.edges_relaxed < from_source.edges_relaxed
    assert case_of("SSSP").observe(vm_b.read_memory, bufs, restored) == case_of("SSSP").expected
