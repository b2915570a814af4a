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

The tree's shape is configuration: :class:`MuxTree` wires the default
balanced radix tree and the asymmetric trees of §4.1 alike, from a
topology spec (:data:`TopologySpec`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.fpga.synthesis import mux_levels
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


#: A topology spec: a (nested) list, one multiplexer node per list with one
#: input per item.  An item is a leaf index (int), a sub-list (a child
#: node) or ``None`` (an unconnected input).  ``[0, [1, 2]]`` hangs leaf 0
#: directly off the root while leaves 1 and 2 share a child multiplexer —
#: leaf 0 then receives half the root bandwidth, 1 and 2 a quarter each.
TopologySpec = list


def balanced_topology(n_leaves: int, radix: int) -> TopologySpec:
    """The full radix-``radix`` tree of :func:`~repro.fpga.synthesis.mux_levels` levels.

    Leaf ``i`` sits on input ``i % radix`` of leaf-level node
    ``i // radix``; every port past the last leaf is ``None``, so the
    node count is :class:`~repro.fpga.synthesis.MuxArrangement`'s.
    """
    levels = mux_levels(n_leaves, radix)

    def subtree(level: int, index: int) -> TopologySpec:
        first = index * radix
        if level == 0:
            return [leaf if leaf < n_leaves else None for leaf in range(first, first + radix)]
        return [subtree(level - 1, first + offset) for offset in range(radix)]

    return subtree(levels - 1, 0)


class MuxTree:
    """A multiplexer hierarchy built from a topology spec.

    :func:`balanced_topology` gives the default radix tree.  §4.1: "if
    cloud providers seek to provide greater bandwidth to some accelerator
    A, the multiplexer tree can be configured to place fewer accelerators
    under the multiplexers on A's path" — an uneven spec does that.  Each
    node arbitrates round-robin among its inputs, so a leaf's share of
    root bandwidth is the product of 1/fan-in along its path.
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
        self.level_latency_ps = level_latency_ps
        self.nodes: List[MuxNode] = []
        self._ingress: Dict[int, Callable[..., None]] = {}
        #: Levels between each leaf and the root.
        self.depth: Dict[int, int] = {}

        # Build top-down, so every node is born bound to its parent's
        # input: the root feeds the egress and is the one paced node.
        def build(spec: TopologySpec, forward: Callable[..., None], depth: int) -> None:
            node = MuxNode(
                engine,
                f"mux.d{depth}.{len(self.nodes)}",
                len(spec),
                clock=clock,
                level_latency_ps=level_latency_ps,
                forward=forward,
                cost_per_line_cycles=root_cost_per_line_cycles if depth == 1 else 1.0,
            )
            self.nodes.append(node)
            for input_index, child in enumerate(spec):
                if isinstance(child, list):
                    build(child, node.input(input_index), depth + 1)
                elif child is not None:
                    leaf = int(child)
                    if leaf in self._ingress:
                        raise ConfigurationError(f"leaf {leaf} appears twice")
                    self._ingress[leaf] = node.input(input_index)
                    self.depth[leaf] = depth

        build(topology, root_egress, 1)
        self.n_leaves = len(self._ingress)
        if self.n_leaves == 0:
            raise ConfigurationError("topology has no leaves")

    def leaf_ingress(self, leaf_index: int) -> Callable[..., None]:
        """The ingress function for one leaf (wired to an auditor)."""
        try:
            return self._ingress[leaf_index]
        except KeyError:
            raise ConfigurationError(f"leaf {leaf_index} not in topology") from None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def request_path_latency_ps(self, leaf_index: int) -> int:
        """Pure pipeline latency from a leaf to the root (no queueing)."""
        return self.depth[leaf_index] * self.level_latency_ps
