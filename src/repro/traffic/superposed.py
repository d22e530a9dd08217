"""Superposed Poisson traffic: one clock drives many sessions.

At the heavy-traffic scale (10^4-10^6 concurrent sessions,
``docs/heavy_traffic.md``) one :class:`~repro.traffic.poisson
.PoissonSource` per session is ruinous twice over: each source owns a
named Mersenne Twister stream (~2.5 KB of state) and keeps one pending
timer event per session in the kernel heap, so the heap holds 10^5
events at all times.

The superposition property of the Poisson process gives an exact
escape: ``N`` independent Poisson processes of rate ``λ`` are
distributionally identical to **one** Poisson process of rate ``N·λ``
whose arrivals are marked uniformly at random with a session index.
:class:`SuperposedPoissonSource` implements the marked single-clock
form: one exponential gap sampler at the aggregate rate, one uniform
session pick per packet, one pending event in the heap, two RNG
streams total.

The two forms are *statistically* equivalent but draw different random
numbers, so they are **not** bit-identical to each other — use the
same source construction on both sides of any digest comparison
(``docs/heavy_traffic.md`` records the two compared on throughput and
memory, not digests; ``repro.experiments.heavy_traffic`` runs this
one).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sim.events import cancel
from repro.sim.kernel import PRIORITY_NORMAL
from repro.sim.rng import ExponentialSampler
from repro.traffic.base import finite

__all__ = ["SuperposedPoissonSource"]


class SuperposedPoissonSource:
    """One Poisson clock feeding ``N`` sessions by uniform marking.

    Parameters
    ----------
    network / sessions:
        The sessions to feed; all must already be added to the network.
        A tuple is kept as given, anything else is copied into one.
    length:
        Packet length in bits (fixed, as in the paper's experiments).
    mean:
        Mean interarrival *per session* in seconds; the aggregate
        clock runs at ``len(sessions) / mean`` arrivals per second.
    label:
        Names the two RNG streams (``superposed:<label>:gaps`` and
        ``superposed:<label>:picks``), so adding other traffic never
        shifts this source's random numbers.
    start_delay:
        As in :class:`~repro.traffic.base.TrafficSource`.
    """

    def __init__(self, network: Network, sessions: Sequence[Session], *,
                 length: float, mean: float, label: str = "agg",
                 start_delay: float = 0.0) -> None:
        # An iterator is truthy even when empty: test the tuple.
        self.sessions: Tuple[Session, ...] = tuple(sessions)
        if not self.sessions:
            raise ConfigurationError(
                "SuperposedPoissonSource needs at least one session")
        mean = finite("mean", mean)
        self.network = network
        self.length = finite("length", length)
        self.start_delay = finite("start_delay", start_delay, zero=True)
        self.label = label
        self._gap = ExponentialSampler(
            network.streams.stream(f"superposed:{label}:gaps"),
            mean / len(self.sessions))
        self._pick = network.streams.stream(f"superposed:{label}:picks")
        #: ``_pick.randrange(n)`` inlined: the same draws, redrawn to ``< n``.
        self._getrandbits = self._pick.getrandbits
        self._pick_bits = len(self.sessions).bit_length()
        self.emitted = 0
        self.started = False
        self.stopped = False
        #: The one pending timer; None exactly when the source is not
        #: running (see :class:`~repro.traffic.base.TrafficSource`).
        self._pending: Optional[list] = None
        network.add_source(self)

    @property
    def mean_interarrival(self) -> float:
        """Aggregate mean interarrival of the superposed clock."""
        return self._gap.mean

    def start(self) -> "SuperposedPoissonSource":
        """Arm the first timer; a no-op once started or stopped."""
        if self.started or self.stopped:
            return self
        self.started = True
        self._pending = self.network.sim.schedule(
            self.start_delay, self._arm, priority=PRIORITY_NORMAL)
        return self

    def stop(self) -> None:
        """Stop for good and leave the network, as
        :meth:`~repro.traffic.base.TrafficSource.stop` does; the two
        ``label`` streams are the caller's and stay in the table."""
        if self.stopped:
            return
        self.stopped = True
        pending = self._pending
        if pending is not None:
            cancel(pending)
            self._pending = None
        self.network.remove_source(self)

    def _arm(self) -> None:
        """The start timer fired: draw the first aggregate gap and set
        the timer that ends it."""
        self._pending = self.network.sim.schedule(
            self._gap.sample(), self._emit, priority=PRIORITY_NORMAL)

    def _emit(self) -> None:
        """The clock fired: mark the arrival with a session, inject it
        and set the next timer — unless the injection stopped the
        source."""
        sessions = self.sessions
        index = self._getrandbits(self._pick_bits)
        while index >= len(sessions):
            index = self._getrandbits(self._pick_bits)
        network = self.network
        network.inject(sessions[index], self.length)
        self.emitted += 1
        if self._pending is not None:
            self._pending = network.sim.schedule(
                self._gap.sample(), self._emit, priority=PRIORITY_NORMAL)
