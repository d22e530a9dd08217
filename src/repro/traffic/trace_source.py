"""Trace replay: emit packets at prescribed times with prescribed lengths.

Used by unit tests to drive schedulers with hand-constructed arrival
patterns (the recursion-level checks against the paper's equations),
available to users replaying measured traces, and the replay half of
ingress shaping: :func:`~repro.traffic.token_bucket.shape_arrivals`
turns any arrival trace into a token-bucket conformant one, which a
``TraceSource`` then feeds to the network.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.session import Session
from repro.traffic.base import TrafficSource, finite, packet_length

__all__ = ["TraceSource"]


class TraceSource(TrafficSource):
    """Replay an explicit (times, lengths) schedule.

    ``times`` are absolute emission instants (finite, non-negative and
    non-decreasing) measured from the source start; ``lengths`` may be
    a scalar applied to all packets or a per-packet sequence.  The
    source ends with its trace; an empty one never arms a timer.
    """

    def __init__(self, network: Network, session: Session, *,
                 times: Sequence[float],
                 lengths: float | Sequence[float],
                 start_delay: float = 0.0,
                 keep_trace: bool = False) -> None:
        if isinstance(lengths, (int, float)):
            lengths = [lengths] * len(times)
        per_packet = [packet_length(session, x, "lengths") for x in lengths]
        if len(per_packet) != len(times):
            raise ConfigurationError(
                f"{len(times)} times but {len(per_packet)} lengths")
        ordered = [finite("times", float(t), zero=True) for t in times]
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise ConfigurationError("trace times must be non-decreasing")
        super().__init__(network, session,
                         length=per_packet[0] if per_packet
                         else session.l_max,
                         start_delay=start_delay, keep_trace=keep_trace)
        self._times = ordered
        self._lengths = per_packet

    def start(self) -> "TraceSource":
        """As :meth:`TrafficSource.start`, but an empty trace arms
        nothing: it would only dispatch its start timer."""
        if self._times:
            return super().start()
        self.started = True
        return self

    def intervals(self):
        previous = 0.0
        for target, length in zip(self._times, self._lengths):
            self.length = length
            yield target - previous
            previous = target
