"""Deterministic traffic: constant interarrival times.

"Deterministic sources are used in experiments where we want to commit
all the bandwidth of a server" — the Figure-11 cross traffic is 47 such
sources of 32 kbit/s per hop.
"""

from __future__ import annotations

from repro.net.network import Network
from repro.net.session import Session
from repro.traffic.base import TrafficSource, finite

__all__ = ["DeterministicSource"]


class DeterministicSource(TrafficSource):
    """Fixed packet rate: one packet every ``interval`` seconds."""

    def __init__(self, network: Network, session: Session, *,
                 length: float, interval: float, start_delay: float = 0.0,
                 keep_trace: bool = False) -> None:
        self.interval = finite("interval", interval)
        super().__init__(network, session, length=length,
                         start_delay=start_delay, keep_trace=keep_trace)

    @property
    def mean_rate(self) -> float:
        return self.length / self.interval

    def intervals(self):
        yield 0.0
        while True:
            yield self.interval
