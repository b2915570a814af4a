"""CCI-P virtual-channel selection.

CCI-P lets an accelerator tag each request with a virtual channel:

* ``VA``  — "auto": the shell's channel selector picks a physical link,
  optimizing for aggregate throughput (§6.1);
* ``VL0`` — force the UPI link;
* ``VH0``/``VH1`` — force one of the two PCIe links.

The paper's LinkedList benchmark pins VL0 or VH0 precisely because VA's
throughput-oriented placement makes latency unstable (§6.1: "the channel
selector places some reads on PCIe, leading to wide performance variation
for latency-sensitive benchmarks").  The VA policy here — pick the link
with the smallest backlog, breaking ties round-robin — reproduces exactly
that behaviour: an idle platform round-robins requests across UPI and
PCIe, so per-request latency alternates between ~400 ns and ~900 ns.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.interconnect.link import Link, LinkKind


class VirtualChannel(enum.Enum):
    VA = "va"  # automatic
    VL0 = "vl0"  # UPI only
    VH0 = "vh0"  # PCIe link 0 only
    VH1 = "vh1"  # PCIe link 1 only


class ChannelSelector:
    """Maps each request's virtual channel to a physical link."""

    def __init__(self, upi: Link, pcie_links: Sequence[Link]) -> None:
        if upi.kind is not LinkKind.UPI:
            raise ConfigurationError("first link must be UPI")
        if not pcie_links:
            raise ConfigurationError("need at least one PCIe link")
        for link in pcie_links:
            if link.kind is not LinkKind.PCIE:
                raise ConfigurationError("pcie_links must all be PCIe")
        self.upi = upi
        self.pcie_links = list(pcie_links)
        self.all_links: List[Link] = [upi, *pcie_links]
        self._rr_cursor = 0
        # For select(): each link's two directional servers, and a scratch
        # list for the backlogs of one decision.
        self._servers = [(link.to_memory, link.from_memory) for link in self.all_links]
        self._backlogs = [0] * len(self.all_links)

    def select(self, channel: VirtualChannel) -> Link:
        """Resolve a virtual channel to a physical link for one request."""
        if channel is not VirtualChannel.VA:
            return self.fixed_link(channel)
        # Throughput-optimized: least-backlog wins; ties rotate round-robin
        # so an unloaded platform spreads requests across every link.
        # A link's backlog is its committed-but-unserved time in both
        # directions.  Open-coded: this runs per request.
        now = self.upi.engine.now
        backlogs = self._backlogs
        best_backlog = -1
        ties = 0
        for index, (to_memory, from_memory) in enumerate(self._servers):
            outbound = to_memory._next_free_ps - now
            inbound = from_memory._next_free_ps - now
            backlog = (outbound if outbound > 0 else 0) + (inbound if inbound > 0 else 0)
            backlogs[index] = backlog
            if best_backlog < 0 or backlog < best_backlog:
                best_backlog = backlog
                ties = 1
            elif backlog == best_backlog:
                ties += 1
        pick = self._rr_cursor % ties
        self._rr_cursor += 1
        for index, backlog in enumerate(backlogs):
            if backlog == best_backlog:
                if not pick:
                    return self.all_links[index]
                pick -= 1
        raise AssertionError("unreachable: tie scan exhausted")

    def fixed_link(self, channel: VirtualChannel) -> Optional[Link]:
        """The forced link for a pinned channel, or ``None`` for VA."""
        if channel is VirtualChannel.VL0:
            return self.upi
        if channel is VirtualChannel.VH0:
            return self.pcie_links[0]
        if channel is VirtualChannel.VH1:
            return self.pcie_links[min(1, len(self.pcie_links) - 1)]
        return None
