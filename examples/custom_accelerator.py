#!/usr/bin/env python3
"""Build your own preemptible accelerator and run it under OPTIMUS.

Accelerator designers targeting OPTIMUS implement the paper's preemption
interface (§4.2): identify the minimal architected state, save it when
the hypervisor asks, and write the job body re-entrantly.  This example
implements a "vector triad" accelerator (c[i] = a[i] + s * b[i]) from
scratch — the complete recipe:

* an :class:`AcceleratorProfile` (frequency, resources, state size),
* a job body that reads operands via DMA, computes, writes results, and
  calls ``ctx.preempt_point()`` between work units,
* a ``state_fields`` declaration of the single cursor it needs (the
  base class saves and restores it).

Two instances then share one physical accelerator under 1 ms time slices,
getting preempted dozens of times — and still producing exact results.

Run:  python examples/custom_accelerator.py
"""

import struct

import numpy as np

from repro import PlatformParams, build_platform
from repro.accel import AcceleratorJob, AcceleratorProfile
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter
from repro.guest import GuestAccelerator
from repro.hv import OptimusHypervisor
from repro.mem import MB
from repro.sim.clock import ms
from repro.sim.packet import CACHE_LINE_BYTES

REG_A, REG_B, REG_C, REG_COUNT, REG_SCALE = 0x00, 0x08, 0x10, 0x18, 0x20

TRIAD_PROFILE = AcceleratorProfile(
    name="TRIAD",
    description="Vector triad: c = a + s*b (float32)",
    loc_verilog=850,  # what a simple DSP pipeline would cost
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=1.1, bram_pct=0.9),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=32,
    state_bytes=64,
)


class TriadJob(AcceleratorJob):
    """A minimal, fully preemptible custom accelerator."""

    profile = TRIAD_PROFILE
    state_fields = (("cursor", "Q"),)  # lines processed: the whole state

    def __init__(self):
        super().__init__()
        self.cursor = 0

    def body(self, ctx):
        a, b, c = self.reg(REG_A), self.reg(REG_B), self.reg(REG_C)
        lines = self.reg(REG_COUNT)
        scale = struct.unpack("<f", struct.pack("<I", self.reg(REG_SCALE)))[0]
        while self.cursor < lines:
            offset = self.cursor * CACHE_LINE_BYTES
            data_a = yield ctx.read(a + offset)
            data_b = yield ctx.read(b + offset)
            va = np.frombuffer(data_a, dtype=np.float32)
            vb = np.frombuffer(data_b, dtype=np.float32)
            yield ctx.cycles(16)  # 16 lanes/cycle over 16 floats
            yield ctx.write(c + offset, (va + scale * vb).tobytes())
            self.cursor += 1
            if (yield from ctx.preempt_point()):
                return  # state already saved; we'll be resumed later
        self.done = True


def main() -> None:
    platform = build_platform(
        PlatformParams(time_slice_ps=ms(1)), n_accelerators=1
    )
    hypervisor = OptimusHypervisor(platform)

    lines = 4000
    rng = np.random.RandomState(0)
    tenants = []
    for who, scale in (("vm-x", 2.0), ("vm-y", -0.5)):
        vm = hypervisor.create_vm(who)
        job = TriadJob()
        vaccel = hypervisor.create_virtual_accelerator(vm, job, physical_index=0)
        accel = GuestAccelerator(hypervisor, vm, vaccel, window_bytes=16 * MB)
        a = accel.alloc_buffer(lines * 64)
        b = accel.alloc_buffer(lines * 64)
        c = accel.alloc_buffer(lines * 64)
        va = rng.uniform(-100, 100, lines * 16).astype(np.float32)
        vb = rng.uniform(-100, 100, lines * 16).astype(np.float32)
        accel.write_buffer(a, va.tobytes())
        accel.write_buffer(b, vb.tobytes())
        for reg, value in (
            (REG_A, a), (REG_B, b), (REG_C, c), (REG_COUNT, lines),
            (REG_SCALE, struct.unpack("<I", struct.pack("<f", scale))[0]),
        ):
            accel.mmio_write(reg, value)
        done = accel.start()
        tenants.append((who, scale, job, vaccel, accel, c, va, vb, done))

    for *_rest, done in tenants:
        platform.engine.run_until(done)

    for who, scale, job, vaccel, accel, c, va, vb, _done in tenants:
        result = np.frombuffer(accel.read_buffer(c, lines * 64), dtype=np.float32)
        expected = va + np.float32(scale) * vb
        assert np.allclose(result, expected), f"{who}: wrong results!"
        print(f"{who}: c = a + {scale} * b over {lines * 16} floats — exact, "
              f"despite {vaccel.preempt_count} preemptions")
    print("\ncustom accelerator survived preemptive temporal multiplexing.")


if __name__ == "__main__":
    main()
