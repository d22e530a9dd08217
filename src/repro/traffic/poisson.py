"""Poisson traffic: exponentially distributed interarrival times.

Used by the paper both for the *firewall* experiments (cross traffic
whose statistical fluctuations must not leak into other sessions'
guarantees) and for the delay-distribution experiments of Figures 9-11,
where the session's reference server becomes an M/D/1 queue amenable to
the Crommelin analysis in :mod:`repro.bounds.md1`.
"""

from __future__ import annotations

from typing import Optional

from repro.net.network import Network
from repro.net.session import Session
from repro.sim.rng import ExponentialSampler
from repro.traffic.base import TrafficSource, finite

__all__ = ["PoissonSource"]


class PoissonSource(TrafficSource):
    """Packets arrive as a Poisson process with mean interarrival ``mean``."""

    def __init__(self, network: Network, session: Session, *,
                 length: float, mean: float, start_delay: float = 0.0,
                 keep_trace: bool = False,
                 stream_name: Optional[str] = None) -> None:
        mean = finite("mean", mean)
        super().__init__(network, session, length=length,
                         start_delay=start_delay, keep_trace=keep_trace)
        rng = self._stream(stream_name, f"poisson:{session.id}")
        self._gap = ExponentialSampler(rng, mean)

    @property
    def mean_interarrival(self) -> float:
        return self._gap.mean

    @property
    def mean_rate(self) -> float:
        """Average offered bit rate: L / a_P."""
        return self.length / self._gap.mean

    def utilization(self) -> float:
        """Load of the session's reference server, ρ = λ·(L/r)."""
        return self.mean_rate / self.session.rate

    def intervals(self):
        while True:
            yield self._gap.sample()
