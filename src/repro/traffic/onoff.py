"""ON-OFF traffic: two-state Markov-modulated packet generation.

The paper's model: in the ON state packets are generated at fixed
intervals ``T``; in the OFF state no packets are generated. ON and OFF
durations are exponential with means ``a_ON`` and ``a_OFF``; the number
of packets per ON period is approximated by a geometric distribution
with mean ``a_ON / T``.

The gap between the last packet of one burst and the first of the next
is ``T + OFF-draw``, so every interarrival is at least ``T``. Two
consequences match the paper's usage:

* with ``a_OFF = 0`` the source degenerates to a fixed packet rate
  source ("traffic sources that resemble ... fixed packet rate sources
  (which have a_OFF = 0 ms)"), and
* a session whose reserved rate is ``L/T`` conforms to a token-bucket
  ``(r_s, L)``, so its reference-server delay bound is
  ``D_ref = L/r_s`` (paper eq. 14) — the constant the Figure-7/8 bound
  curves are built from.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sim.rng import ExponentialSampler, GeometricSampler
from repro.traffic.base import TrafficSource, finite

__all__ = ["OnOffSource"]


class OnOffSource(TrafficSource):
    """Markov-modulated ON-OFF source with fixed in-burst spacing."""

    def __init__(self, network: Network, session: Session, *,
                 length: float, spacing: float, mean_on: float,
                 mean_off: float, start_delay: float = 0.0,
                 keep_trace: bool = False,
                 stream_name: Optional[str] = None) -> None:
        self.spacing = finite("spacing", spacing)
        self.mean_on = finite("mean_on", mean_on)
        self.mean_off = finite("mean_off", mean_off, zero=True)
        if mean_on < spacing:
            raise ConfigurationError(
                f"mean_on {mean_on} shorter than spacing {spacing} "
                "would emit fewer than one packet per burst")
        super().__init__(network, session, length=length,
                         start_delay=start_delay, keep_trace=keep_trace)
        rng = self._stream(stream_name, f"onoff:{session.id}")
        self._burst_length = GeometricSampler(rng, mean_on / spacing)
        self._off = (ExponentialSampler(rng, mean_off)
                     if mean_off > 0 else None)

    @property
    def peak_rate(self) -> float:
        """Generation rate while ON: L / T bits per second."""
        return self.length / self.spacing

    @property
    def mean_rate(self) -> float:
        """Long-run average rate of the modulated process."""
        packets_per_cycle = self.mean_on / self.spacing
        cycle = packets_per_cycle * self.spacing + self.mean_off
        return packets_per_cycle * self.length / cycle

    def intervals(self):
        # First packet: begin with an OFF draw so simultaneous sources
        # desynchronize; with mean_off == 0 the source starts immediately.
        off = self._off
        first_gap = off.sample() if off is not None else 0.0
        pending_gap = first_gap
        while True:
            burst = self._burst_length.sample()
            for index in range(burst):
                yield pending_gap
                pending_gap = self.spacing
            off_gap = off.sample() if off is not None else 0.0
            # Keep every interarrival >= spacing (see module docstring).
            pending_gap = self.spacing + off_gap
