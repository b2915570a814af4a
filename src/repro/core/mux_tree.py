"""The multiplexer tree (§4.1, §5).

The tree carries packets between the shell and the physical accelerators.
Design properties taken from the paper:

* **Round-robin arbitration per node** — equal bandwidth for every
  accelerator on the same path, the mechanism behind §6.7's fairness.
* **No address-based routing** — the tree propagates blindly; auditors at
  the leaves decide (lazy packet routing).
* **~33 ns latency per level** — Fig. 4a's 100 ns adder for the
  three-level binary tree.
* **One packet per node per cycle** — together with the leaf-side issue
  throttle, this is why an OPTIMUS accelerator "can only transmit a memory
  request packet every two cycles" (§6.3).

Asymmetric trees are supported: "if cloud providers seek to provide
greater bandwidth to some accelerator A, the multiplexer tree can be
configured to place fewer accelerators under the multiplexers on A's
path" (§4.1) — build with an explicit topology list to do that.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.interconnect.channel_selector import VirtualChannel
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.packet import CACHE_LINE_BYTES, Packet, PacketKind
from repro.sim.port import RoundRobinArbiter

#: What flows through the tree: the packet, its virtual channel, the
#: response continuation that eventually reaches the issuing auditor, and
#: whatever further arguments that continuation wants back after the
#: response (``on_response(response, *rest)``).
TreeItem = Tuple[Packet, VirtualChannel, Callable[..., None]]

#: The tree's root output: delivers the item (``root_egress(*item)``) to
#: the VCU/shell.  The leaf ingress functions have the same signature.
RootEgress = Callable[..., None]


#: Root-pacing weight for write requests.  CCI-P carries writes on their
#: own Tx channel (C1) with separate credits; the root's *read* pacing
#: models downstream-link acceptance, so writes only pay a token slot.
WRITE_ROOT_WEIGHT = 0.2


def hold_cycles(lines: int, is_write: bool, cost_per_line_cycles: float) -> float:
    """Cycles a packet of ``lines`` cache lines holds a node paced at
    ``cost_per_line_cycles`` (the arbiter rounds anything <= 1 up to one)."""
    if is_write and cost_per_line_cycles > 1.0:
        # Rate-paced root: writes ride the separate C1 channel.
        paced = lines * cost_per_line_cycles * WRITE_ROOT_WEIGHT
        return paced if paced > 1.0 else 1.0
    return lines * cost_per_line_cycles


class MuxNode:
    """One r-input multiplexer stage with round-robin arbitration.

    ``cost_per_line_cycles`` > 1 models a rate-paced node: the tree's root
    can only hand the shell requests as fast as the interconnect accepts
    them, which makes the root's round-robin the platform's bandwidth
    allocator — the property behind §6.7's fairness guarantees.

    The node is wiring only: its arbiter (:mod:`repro.sim.port`) grants,
    forwards the item ``level_latency_ps`` later — each tree level adds
    its pipeline latency on the request path — and re-arms, in one event
    handler.  ``forward(*item)`` is the parent node's :meth:`input` or the
    tree's root egress.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        radix: int,
        *,
        clock: Clock,
        level_latency_ps: int,
        forward: Callable[..., None],
        cost_per_line_cycles: float = 1.0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.level_latency_ps = level_latency_ps
        scale = cost_per_line_cycles

        def cost(packet: Packet, *_rest: object) -> float:
            lines = max(1, (packet.size + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES)
            return hold_cycles(lines, packet.kind is PacketKind.DMA_WRITE_REQ, scale)

        self.arbiter = RoundRobinArbiter(
            engine,
            name,
            n_inputs=radix,
            period_ps=clock.period_ps,
            cost_cycles=cost,
            forward=forward,
            forward_latency_ps=level_latency_ps,
            # Nearly every packet is one line: its hold time is a constant
            # of the node, computed here rather than asked per grant.
            line_hold_cycles=(hold_cycles(1, False, scale), hold_cycles(1, True, scale)),
        )

    def push(self, input_index: int, item: TreeItem) -> None:
        self.arbiter.push(input_index, *item)

    def input(self, input_index: int) -> Callable[..., None]:
        """``input(i)(*item)`` pushes on input ``i``: what a child node's
        forward, or an auditor's tree ingress, is bound to."""
        if not 0 <= input_index < len(self.arbiter.grants_per_input):
            raise ConfigurationError(f"{self.name}: no input {input_index}")
        return partial(self.arbiter.push, input_index)


class MuxTree:
    """A complete multiplexer hierarchy with N leaf ports."""

    def __init__(
        self,
        engine: Engine,
        n_leaves: int,
        *,
        radix: int,
        clock: Clock,
        level_latency_ps: int,
        root_egress: RootEgress,
        root_cost_per_line_cycles: float = 1.0,
    ) -> None:
        if n_leaves < 1:
            raise ConfigurationError("mux tree needs at least one leaf")
        if radix < 2:
            raise ConfigurationError("mux radix must be >= 2")
        self.engine = engine
        self.n_leaves = n_leaves
        self.radix = radix
        self.levels = max(1, math.ceil(math.log(max(n_leaves, 2), radix)))
        self.root_egress = root_egress

        # Build top-down, so every node is born bound to its parent's
        # input: the single root feeds the egress, each lower level
        # multiplexes into the one above, level 0 takes the leaves
        # (radix**levels slots, including unused ones).
        self._levels: List[List[MuxNode]] = []
        above: List[MuxNode] = []
        for level in range(self.levels - 1, -1, -1):
            above = [
                MuxNode(
                    engine,
                    f"mux.L{level}.{index}",
                    radix,
                    clock=clock,
                    level_latency_ps=level_latency_ps,
                    forward=(
                        above[index // radix].input(index % radix) if above else root_egress
                    ),
                    cost_per_line_cycles=1.0 if above else root_cost_per_line_cycles,
                )
                for index in range(radix ** (self.levels - 1 - level))
            ]
            self._levels.insert(0, above)

    # -- leaf-side API -----------------------------------------------------------

    def leaf_ingress(self, leaf_index: int) -> Callable[..., None]:
        """The ingress function for one leaf (wired to an auditor)."""
        if not 0 <= leaf_index < self.n_leaves:
            raise ConfigurationError(f"leaf {leaf_index} out of range")
        return self._levels[0][leaf_index // self.radix].input(leaf_index % self.radix)

    @property
    def node_count(self) -> int:
        return sum(len(nodes) for nodes in self._levels)

    @property
    def request_path_latency_ps(self) -> int:
        """Pure pipeline latency from a leaf to the root (no queueing)."""
        return self.levels * self._levels[0][0].level_latency_ps


#: An asymmetric-topology spec: a (nested) list whose items are either leaf
#: indices (ints) or sub-lists (subtrees).  ``[0, [1, 2]]`` hangs leaf 0
#: directly off the root while leaves 1 and 2 share a child multiplexer —
#: leaf 0 then receives half the root bandwidth, 1 and 2 a quarter each.
TopologySpec = list


class AsymmetricMuxTree:
    """A multiplexer hierarchy with an explicit, possibly uneven topology.

    §4.1: "if cloud providers seek to provide greater bandwidth to some
    accelerator A, the multiplexer tree can be configured to place fewer
    accelerators under the multiplexers on A's path."  Each node still
    arbitrates round-robin among its direct children, so a leaf's share
    of root bandwidth is the product of 1/fan-in along its path.
    """

    def __init__(
        self,
        engine: Engine,
        topology: TopologySpec,
        *,
        clock: Clock,
        level_latency_ps: int,
        root_egress: RootEgress,
        root_cost_per_line_cycles: float = 1.0,
    ) -> None:
        if not isinstance(topology, list) or not topology:
            raise ConfigurationError("topology must be a non-empty list")
        self.engine = engine
        self.root_egress = root_egress
        self._clock = clock
        self._level_latency_ps = level_latency_ps
        self._root_cost = root_cost_per_line_cycles
        self._ingress: dict = {}
        self._node_count = 0
        self.nodes: List[MuxNode] = []

        self._build_node(topology, root_egress, depth=1)
        self.n_leaves = len(self._ingress)
        if self.n_leaves == 0:
            raise ConfigurationError("topology has no leaves")

    def _build_node(self, spec: TopologySpec, forward, depth: int) -> MuxNode:
        node = MuxNode(
            self.engine,
            f"amux.d{depth}.{self._node_count}",
            radix=len(spec),
            clock=self._clock,
            level_latency_ps=self._level_latency_ps,
            forward=forward,
            cost_per_line_cycles=self._root_cost if depth == 1 else 1.0,
        )
        self.nodes.append(node)
        self._node_count += 1
        for input_index, child in enumerate(spec):
            if isinstance(child, list):
                self._build_node(child, node.input(input_index), depth + 1)
            else:
                if child in self._ingress:
                    raise ConfigurationError(f"leaf {child} appears twice")
                self._ingress[int(child)] = node.input(input_index)
        return node

    def leaf_ingress(self, leaf_index: int) -> Callable[..., None]:
        try:
            return self._ingress[leaf_index]
        except KeyError:
            raise ConfigurationError(f"leaf {leaf_index} not in topology") from None

    @property
    def node_count(self) -> int:
        return self._node_count

    def depth_of(self, leaf_index: int, topology: TopologySpec) -> int:
        """Levels between a leaf and the root (for latency accounting)."""

        def search(spec: TopologySpec, depth: int) -> Optional[int]:
            for child in spec:
                if isinstance(child, list):
                    found = search(child, depth + 1)
                    if found is not None:
                        return found
                elif child == leaf_index:
                    return depth
            return None

        found = search(topology, 1)
        if found is None:
            raise ConfigurationError(f"leaf {leaf_index} not in topology")
        return found
