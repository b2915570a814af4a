"""LinkedList (LL): the latency microbenchmark (§6.1, 695 LoC, 400 MHz).

"LinkedList sequentially fetches cache line sized nodes from a linked
list distributed randomly in DRAM ... creating a latency bottleneck."
One outstanding request at a time — every fetch pays the full round trip,
which is what makes it the worst case for latency-bound pointer chasing.

Two node-address sources:

* **functional mode** — a real linked list laid out in shared memory
  (see :func:`build_list_image`); the walker reads each node's 8-byte
  ``next`` pointer from the returned data.  True pointer chasing: the
  next address is unknowable until the DMA completes.
* **pattern mode** — for multi-gigabyte working sets, a xorshift stream
  generates the same *distribution* of node addresses without
  materializing the list; timing behaviour (IOTLB sets touched, serial
  dependence) is identical.

Implements the preemption interface; the saved state is exactly what the
paper suggests for a linked-list walker: the next node's address (§4.2).
"""

from __future__ import annotations

import struct
from typing import Generator, List, Optional, Tuple

from repro.accel.base import AcceleratorJob, AcceleratorProfile, ExecutionContext
from repro.accel.streaming import REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter
from repro.kernels.dsp import Xorshift64Star
from repro.sim.packet import CACHE_LINE_BYTES
from repro.sim.stats import LatencyRecorder

LL_PROFILE = AcceleratorProfile(
    name="LL",
    description="Linked List Walker",
    loc_verilog=695,
    freq_mhz=400.0,
    footprint=ResourceFootprint(alm_pct=0.15, bram_pct=0.0),
    character=SynthesisCharacter.TRIVIAL,
    max_outstanding=1,  # strictly serial: the latency bottleneck by design
    state_bytes=64,
)

#: REG_PARAM0: 1 = pattern mode (synthetic addresses), 0 = real pointers.
ADDR_MODE_POINTERS = 0
ADDR_MODE_PATTERN = 1


def build_list_image(
    working_set: int, *, seed: int = 99, node_count: int = 0
) -> Tuple[bytes, List[int]]:
    """A real linked-list byte image covering ``working_set`` bytes.

    Nodes are one cache line; the traversal order is a random permutation
    (a random Hamiltonian cycle), so walks are distributed randomly in
    memory exactly as the paper describes.  Returns the image and the
    order of node offsets (for verification).
    """
    total_nodes = working_set // CACHE_LINE_BYTES
    count = node_count or total_nodes
    rng = Xorshift64Star(seed)
    # Fisher-Yates over node indices.
    order = list(range(total_nodes))
    for i in range(total_nodes - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        order[i], order[j] = order[j], order[i]
    order = order[:count]
    # Rotate so node 0 leads: the walker starts at offset 0 (position 0).
    if 0 in order:
        zero_at = order.index(0)
        order = order[zero_at:] + order[:zero_at]
    image = bytearray(working_set)
    for position, node in enumerate(order):
        next_node = order[(position + 1) % len(order)]
        offset = node * CACHE_LINE_BYTES
        struct.pack_into("<Q", image, offset, next_node * CACHE_LINE_BYTES)
        struct.pack_into("<Q", image, offset + 8, position)  # payload
    return bytes(image), [node * CACHE_LINE_BYTES for node in order]


class LinkedListJob(AcceleratorJob):
    """Serially chases ``REG_PARAM1`` nodes starting at REG_SRC.

    Registers: REG_SRC = list base GVA, REG_LEN = working-set bytes,
    REG_PARAM0 = address mode, REG_PARAM1 = hops to perform.
    """

    profile = LL_PROFILE
    state_fields = (("next_offset", "Q"), ("hops_done", "Q"), ("rng.state", "Q"))

    def __init__(
        self,
        *,
        seed: int = 0xABCDEF01,
        functional: bool = True,
        target_hops: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.functional = functional
        self.target_hops = target_hops  # experiment harness hint (REG_PARAM1)
        self.rng = Xorshift64Star(seed)
        self.hops_done = 0
        self.next_offset = 0  # the minimal preemption state (§4.2)
        self.latency = LatencyRecorder("ll")
        self.payload_sum = 0

    def body(self, ctx: ExecutionContext) -> Generator:
        base = self.reg(REG_SRC)
        working_set = self.reg(REG_LEN)
        mode = self.reg(REG_PARAM0, ADDR_MODE_POINTERS)
        target_hops = self.reg(REG_PARAM1, 1024)
        while self.hops_done < target_hops:
            start_ps = ctx.engine.now
            data = yield ctx.read(base + self.next_offset)
            self.latency.record(ctx.engine.now - start_ps)
            yield ctx.cycles(2)  # node-processing pipeline
            if mode == ADDR_MODE_POINTERS:
                if data is None:
                    break  # dropped DMA: the walk cannot continue
                self.next_offset = struct.unpack_from("<Q", data, 0)[0]
                self.payload_sum += struct.unpack_from("<Q", data, 8)[0]
            else:
                lines = working_set // CACHE_LINE_BYTES
                self.next_offset = (self.rng.next_u64() % lines) * CACHE_LINE_BYTES
            self.hops_done += 1
            if self.hops_done % 64 == 0:
                preempted = yield from ctx.preempt_point()
                if preempted:
                    return
        self.done = True

    def progress_units(self) -> int:
        return self.hops_done
