"""Common machinery for traffic sources.

A source is bound to a network and a session; when started it drives
itself with kernel timers — one per gap drawn from :meth:`TrafficSource
.intervals` — and injects a packet at the session's first node each
time one fires.  :meth:`TrafficSource.stop` is final: the stopped
source leaves the network and gives back the random stream it named
itself, so a torn-down call leaves nothing behind but what its caller
keeps. A source optionally keeps its emission trace (times and
lengths), which the distribution experiments feed to the session's
*reference server* to obtain the paper's "simulated upper bound" without
a second run.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sim.events import Event
from repro.sim.kernel import PRIORITY_NORMAL

__all__ = ["TrafficSource"]

#: What ``next`` returns when ``intervals()`` has no more gaps.
_EXHAUSTED = object()


class TrafficSource:
    """Base class: subclasses implement :meth:`intervals`.

    Parameters
    ----------
    network / session:
        Where packets go. The source registers itself with the network
        so :meth:`repro.net.network.Network.run` starts it.
    length:
        Packet length in bits for every emitted packet (the paper uses
        fixed 424-bit packets throughout). Subclasses may override
        :meth:`next_length` for variable sizes.
    length_sampler:
        Optional sampler from :mod:`repro.traffic.lengths`; when given
        it overrides ``length`` per packet (``length`` then only seeds
        the default). Exercises the variable-length code paths of the
        discipline (eq. 9's ``d_max − d_i`` term, the α constant).
    shaper:
        Optional ``(rate, depth)`` ingress token-bucket shaper. Packets
        the raw process would emit too early are held at the source
        until they conform, so the injected traffic satisfies the
        token-bucket envelope — and therefore the session earns the
        eq.-14 reference delay bound ``depth/rate`` no matter how
        bursty the underlying process is. This is the paper's remark
        that a session "may need to reserve more bandwidth than its
        average rate in order to reduce the end-to-end delay", realized
        as a mechanism.
    start_delay:
        Offset before the first interval is drawn, useful to desynchronize
        deterministic sources.
    keep_trace:
        Record (emission time, length) pairs.
    max_packets:
        Stop after emitting this many packets (None = unbounded).
    """

    def __init__(self, network: Network, session: Session, *,
                 length: float, start_delay: float = 0.0,
                 keep_trace: bool = False,
                 max_packets: Optional[int] = None,
                 length_sampler=None,
                 shaper: Optional[tuple] = None) -> None:
        self.network = network
        self.session = session
        self.length = float(length)
        self.length_sampler = length_sampler
        if shaper is None:
            self._shaper_bucket = None
        else:
            from repro.traffic.token_bucket import TokenBucket
            shaper_rate, shaper_depth = shaper
            self._shaper_bucket = TokenBucket(shaper_rate, shaper_depth)
        self.start_delay = float(start_delay)
        self.keep_trace = keep_trace
        if max_packets is not None and max_packets < 0:
            raise ConfigurationError(f"negative max_packets {max_packets}")
        self.max_packets = max_packets
        self.emitted = 0
        self.trace_times: List[float] = []
        self.trace_lengths: List[float] = []
        self.started = False
        self.stopped = False
        self._gaps = None
        #: The stream name :meth:`stop` releases: the default name a
        #: subclass's :meth:`_stream` took for this source, or None.
        self._own_stream: Optional[str] = None
        #: The one timer this source has in the kernel (start offset,
        #: gap, or shaper hold); None exactly when it is not running.
        #: While a timer callback runs this still names the dispatched
        #: event, so a ``stop()`` from inside an emission shows as None.
        self._pending: Optional[Event] = None
        network.add_source(self)

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def intervals(self):
        """Generator of inter-emission delays in seconds.

        The first yielded value is the delay from the start of the
        source to the first packet; each later value is the gap to the
        next packet.
        """
        raise NotImplementedError

    def next_length(self) -> float:
        """Length of the next packet in bits."""
        if self.length_sampler is not None:
            return self.length_sampler.sample()
        return self.length

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
        if self.max_packets != 0:  # told to send nothing: never arms
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
        if not isinstance(gap, (int, float)) or gap < 0:
            self._pending = None
            if gap is _EXHAUSTED:
                return
            raise SimulationError(
                f"source of session {self.session.id!r} yielded {gap!r}; "
                "intervals() must yield non-negative numbers of seconds")
        self._pending = self.network.sim.schedule(
            float(gap), self._tick, priority=PRIORITY_NORMAL)

    def _tick(self) -> None:
        """A gap ran out: emit a packet, or hold it until it conforms."""
        length = self.next_length()
        bucket = self._shaper_bucket
        if bucket is not None:
            sim = self.network.sim
            now = sim.now
            release = bucket.earliest(length, now)
            if release > now:
                self._pending = sim.schedule(
                    release - now, self._emit, length,
                    priority=PRIORITY_NORMAL)
                return
        self._emit(length)

    def _emit(self, length: float) -> None:
        """Inject one packet now, then arm the next gap."""
        network = self.network
        bucket = self._shaper_bucket
        if bucket is not None:
            bucket.consume(length, network.sim.now)
        packet = network.inject(self.session, length)
        self.emitted += 1
        if self.keep_trace:
            self.trace_times.append(packet.entry_time)
            self.trace_lengths.append(length)
        if (self.max_packets is not None
                and self.emitted >= self.max_packets):
            self._pending = None
            return
        self._arm()
