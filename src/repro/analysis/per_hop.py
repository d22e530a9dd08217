"""Per-hop delay decomposition from trace records.

End-to-end delay is the paper's headline observable, but diagnosing a
configuration (is the slow hop the bottleneck? is a regulator adding
the expected hold?) needs the per-hop view. Given a network run with
tracing enabled, this module reconstructs each packet's residence time
at every node (last-bit arrival → end of transmission) and reduces
them to per-node statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.sim.monitor import Tally

__all__ = ["HopBreakdown", "per_hop_delays"]


@dataclass(frozen=True)
class HopBreakdown:
    """Residence-time statistics of one session at one node."""

    node: str
    packets: int
    mean: float
    maximum: float

    def as_row(self) -> Tuple[str, int, float, float]:
        return (self.node, self.packets, self.mean * 1e3,
                self.maximum * 1e3)


def per_hop_delays(network: Network,
                   session_id: str) -> List[HopBreakdown]:
    """Reduce trace records to per-node residence times for a session.

    Requires the network to have been built with a recording tracer
    (``Network(tracer=Tracer(True))`` or ``make_network(trace=True)``
    in the tests). Residence = tx_end − arrival at the same node,
    which includes regulator holds, queueing, and transmission.
    """
    if not network.tracer.recording:
        raise ConfigurationError(
            "per-hop decomposition needs the network's tracer recording")
    session = network.sessions.get(session_id)
    if session is None:
        raise ConfigurationError(f"unknown session {session_id!r}")

    arrivals: Dict[Tuple[str, int], float] = {}
    tallies: Dict[str, Tally] = {
        node: Tally(f"{session_id}@{node}") for node in session.route}
    for record in network.tracer.filter(session=session_id):
        key = (record.node, record.packet)
        if record.category == "arrival":
            arrivals[key] = record.time
        elif record.category == "tx_end" and key in arrivals:
            tallies[record.node].observe(record.time - arrivals.pop(key))

    breakdown = []
    for node in session.route:
        tally = tallies[node]
        breakdown.append(HopBreakdown(
            node=node,
            packets=tally.count,
            mean=tally.mean,
            maximum=tally.maximum or 0.0,
        ))
    return breakdown
