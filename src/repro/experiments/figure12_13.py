"""Figures 12-13: buffer-space distributions and their bounds.

Same run as Figure 8 (CROSS, two ON-OFF five-hop sessions with and
without jitter control, Poisson cross traffic) with buffer monitoring
enabled. For each target session the paper plots the arrival-sampled
buffer occupancy at the first and last server nodes together with the
closed-form bound; the observed maximum sits within about two packets
of the bound.

Without jitter control the bound (and occupancy) grows along the
route; with jitter control both stay flat after node 2 — the
regulators restore the entry traffic shape at every hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.buffers import BufferDistribution, buffer_distribution
from repro.analysis.report import format_table
from repro.experiments import figure08
from repro.experiments.common import PAPER_PACKET_BITS, read_target

__all__ = ["BufferFigureResult", "run"]

#: Nodes the paper plots (first and last of the route).
PLOTTED_NODES = ("n1", "n5")


@dataclass
class BufferFigureResult:
    duration: float
    seed: int
    figure8: figure08.Figure8Result
    #: (session_id, node) -> measured distribution.
    distributions: Dict[Tuple[str, str], BufferDistribution]
    #: (session_id, node) -> bound in bits.
    bounds_bits: Dict[Tuple[str, str], float]

    def max_packets(self, session_id: str, node: str) -> float:
        return self.distributions[(session_id, node)].max_packets(
            PAPER_PACKET_BITS)

    def bound_packets(self, session_id: str, node: str) -> float:
        return self.bounds_bits[(session_id, node)] / PAPER_PACKET_BITS

    def bounds_hold(self) -> bool:
        return all(
            dist.max_bits <= self.bounds_bits[key]
            for key, dist in self.distributions.items())

    def table(self) -> str:
        rows: List[tuple] = []
        for (session_id, node), dist in sorted(self.distributions.items()):
            bound = self.bounds_bits[(session_id, node)]
            rows.append((
                session_id, node, dist.samples,
                dist.max_bits / PAPER_PACKET_BITS,
                bound / PAPER_PACKET_BITS,
                (bound - dist.max_bits) / PAPER_PACKET_BITS))
        return format_table(
            ["session", "node", "samples", "max(pkts)", "bound(pkts)",
             "slack(pkts)"],
            rows,
            title=f"Figures 12-13 — buffer space, CROSS + Poisson cross "
                  f"({self.duration:.0f}s, seed {self.seed})")


def run(*, duration: float = 60.0, seed: int = 0) -> BufferFigureResult:
    base = figure08.run(duration=duration, seed=seed,
                        monitor_buffers=True)
    network = base.network
    distributions: Dict[Tuple[str, str], BufferDistribution] = {}
    bounds_bits: Dict[Tuple[str, str], float] = {}
    for session_id in (figure08.SESSION_NO_CONTROL,
                       figure08.SESSION_CONTROL):
        bounds = read_target(network, session_id).bounds
        session = network.sessions[session_id]
        for node_name in PLOTTED_NODES:
            node = network.node(node_name)
            distributions[(session_id, node_name)] = buffer_distribution(
                node, session_id)
            hop = session.route.index(node_name)
            bounds_bits[(session_id, node_name)] = bounds.buffers[hop]
    return BufferFigureResult(
        duration=duration, seed=seed, figure8=base,
        distributions=distributions, bounds_bits=bounds_bits)
