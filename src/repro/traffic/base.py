"""Common machinery for traffic sources.

A source is its gap process. Bound to a network and a session, it
drives itself with kernel timers — one per gap drawn from
:meth:`TrafficSource.intervals` — and each time one fires it injects a
packet of :attr:`TrafficSource.length` bits at the session's first
node. :meth:`TrafficSource.stop` is final: the stopped source leaves
the network and gives back the random stream it named itself, so a
torn-down call leaves nothing behind but what its caller keeps. A
source optionally keeps its emission trace (times and lengths), which
the distribution experiments feed to the session's *reference server*
to obtain the paper's "simulated upper bound" without a second run.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sim.events import Event
from repro.sim.kernel import PRIORITY_NORMAL

__all__ = ["TrafficSource", "finite", "packet_length"]

#: What ``next`` returns when ``intervals()`` has no more gaps.
_EXHAUSTED = object()


def finite(field: str, value: float, *, zero: bool = False) -> float:
    """``value`` as a float if it is finite and positive (or zero, with
    ``zero=True``); else a :class:`ConfigurationError` naming ``field``.

    Written so NaN fails it: a NaN gap or length would otherwise surface
    mid-run, far from the constructor that took it.
    """
    if not (math.isfinite(value) and (value >= 0 if zero else value > 0)):
        raise ConfigurationError(
            f"{field} must be a finite "
            f"{'non-negative' if zero else 'positive'} number, "
            f"got {value!r}")
    return float(value)


def packet_length(session: Session, value: float,
                  field: str = "length") -> float:
    """``value`` as a float if it is a length ``session`` may send —
    in ``(0, session.l_max]`` — else a :class:`ConfigurationError`
    naming ``field``."""
    length = finite(field, value)
    if length > session.l_max:
        raise ConfigurationError(
            f"{field} {value!r} exceeds session {session.id!r}'s declared "
            f"l_max {session.l_max}")
    return length


class TrafficSource:
    """Base class: subclasses implement :meth:`intervals`.

    Parameters
    ----------
    network / session:
        Where packets go. The source registers itself with the network
        so :meth:`repro.net.network.Network.run` starts it.
    length:
        Packet length in bits, in ``(0, session.l_max]`` (the paper
        uses fixed 424-bit packets throughout). A source whose lengths
        vary sets :attr:`length` inside :meth:`intervals`, before it
        yields the gap that ends at that packet.
    start_delay:
        Offset before the first interval is drawn, useful to desynchronize
        deterministic sources.
    keep_trace:
        Record (emission time, length) pairs.
    """

    def __init__(self, network: Network, session: Session, *,
                 length: float, start_delay: float = 0.0,
                 keep_trace: bool = False) -> None:
        self.network = network
        self.session = session
        self.length = packet_length(session, length)
        self.start_delay = finite("start_delay", start_delay, zero=True)
        self.keep_trace = keep_trace
        self.emitted = 0
        self.trace_times: List[float] = []
        self.trace_lengths: List[float] = []
        self.started = False
        self.stopped = False
        self._gaps = None
        #: The stream name :meth:`stop` releases: the default name a
        #: subclass's :meth:`_stream` took for this source, or None.
        self._own_stream: Optional[str] = None
        #: The one timer this source has in the kernel (start offset or
        #: gap); None exactly when it is not running.  While a timer
        #: callback runs this still names the dispatched event, so a
        #: ``stop()`` from inside an emission shows as None.
        self._pending: Optional[Event] = None
        network.add_source(self)

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def intervals(self):
        """Generator of inter-emission delays in seconds.

        The first yielded value is the delay from the start of the
        source to the first packet; each later value is the gap to the
        next packet.  The packet at the end of a gap has the
        :attr:`length` in force when that gap was yielded.
        """
        raise NotImplementedError

    def _stream(self, stream_name: Optional[str], default: str):
        """The random stream ``stream_name`` names, or ``default``.

        A caller-given name may be shared and is never released.  The
        ``default`` name is this source's own — :meth:`stop` releases
        it — unless another source already holds it.
        """
        streams = self.network.streams
        if not stream_name and default not in streams:
            self._own_stream = default
        return streams.stream(stream_name or default)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TrafficSource":
        """Arm the first timer; a no-op once started or stopped."""
        if self.started or self.stopped:
            return self
        self.started = True
        self._gaps = iter(self.intervals())
        self._pending = self.network.sim.schedule(
            self.start_delay, self._arm, priority=PRIORITY_NORMAL)
        return self

    def stop(self) -> None:
        """Stop for good: the source never emits again, even if started
        later, and a second call does nothing.

        Cancels the pending timer and leaves the network
        (:meth:`~repro.net.network.Network.remove_source`).  It drops
        the :meth:`intervals` generator, whose frame refers back to the
        source, so refcounting frees a stopped source as soon as its
        caller lets go; and it releases the stream the source named
        itself (:meth:`_stream`).
        """
        if self.stopped:
            return
        self.stopped = True
        pending = self._pending
        if pending is not None:
            pending.cancel()
            self._pending = None
        self._gaps = None
        network = self.network
        network.remove_source(self)
        if self._own_stream is not None:
            network.streams.release(self._own_stream)

    def _arm(self) -> None:
        """Draw the next gap and set the timer that ends it."""
        if self._pending is None:
            return
        gap = next(self._gaps, _EXHAUSTED)
        if not isinstance(gap, (int, float)) or not gap >= 0:  # NaN too
            self._pending = None
            if gap is _EXHAUSTED:
                return
            raise SimulationError(
                f"source of session {self.session.id!r} yielded {gap!r}; "
                "intervals() must yield non-negative numbers of seconds")
        self._pending = self.network.sim.schedule(
            float(gap), self._emit, priority=PRIORITY_NORMAL)

    def _emit(self) -> None:
        """A gap ran out: inject one packet now, then arm the next gap."""
        length = self.length
        packet = self.network.inject(self.session, length)
        self.emitted += 1
        if self.keep_trace:
            self.trace_times.append(packet.entry_time)
            self.trace_lengths.append(length)
        self._arm()
