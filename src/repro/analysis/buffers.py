"""Buffer-occupancy statistics (the Figures 12-13 measurement).

The paper samples a session's buffer use at a node "at the moment the
last bit of a packet arrives at a server node", counting the packet in
transmission — which is exactly what
:class:`~repro.net.node.ServerNode` records for sessions created with
``monitor_buffer=True``. This module reduces those samples to the
staircase distribution the figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.histogram import empirical_ccdf
from repro.errors import ConfigurationError
from repro.net.node import ServerNode
from repro.optdeps import np

__all__ = ["BufferDistribution", "buffer_distribution"]


@dataclass(frozen=True)
class BufferDistribution:
    """Arrival-sampled buffer occupancy of one session at one node."""

    node: str
    session_id: str
    samples: int
    max_bits: float
    mean_bits: float
    #: Occupancy values (bits) and P(occupancy > value), staircase.
    ccdf_bits: Tuple[np.ndarray, np.ndarray]

    def max_packets(self, packet_bits: float) -> float:
        """Peak occupancy expressed in packets of ``packet_bits``."""
        return self.max_bits / packet_bits


def buffer_distribution(node: ServerNode,
                        session_id: str) -> BufferDistribution:
    """Reduce a monitored session's occupancy samples at ``node``."""
    series = node.buffer_samples.get(session_id)
    if series is None:
        raise ConfigurationError(
            f"session {session_id!r} is not buffer-monitored at "
            f"{node.name!r} (set monitor_buffer=True on the session)")
    if len(series) == 0:  # no arrival here yet: a zero-sample row
        empty = np.zeros(0)
        return BufferDistribution(node.name, session_id, 0, 0.0, 0.0,
                                  (empty, empty))
    values = np.asarray(series, dtype=float)
    xs, probs = empirical_ccdf(values)
    return BufferDistribution(
        node=node.name,
        session_id=session_id,
        samples=len(values),
        max_bits=float(values.max()),
        mean_bits=float(values.mean()),
        ccdf_bits=(xs, probs),
    )
