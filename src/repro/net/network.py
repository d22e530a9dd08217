"""Network assembly: nodes, sessions, sources, sinks, and delivery.

A :class:`Network` wires :class:`~repro.net.node.ServerNode` objects
together implicitly through session routes (the paper's model is
connection-oriented: packets follow their session's fixed node list, so
no routing table is needed). It owns the simulator, the random streams,
and the per-session sinks, and exposes :meth:`inject` for traffic
sources and :meth:`run` for experiments.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import Link
from repro.net.node import ServerNode
from repro.net.packet import Packet
from repro.net.session import Session
from repro.net.session_table import SessionTable
from repro.net.sink import Sink
from repro.sim.kernel import PRIORITY_NORMAL, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.verify.sanitizer import Sanitizer
    from repro.faults.injector import FaultInjector
    from repro.sim.parallel import ShardContext

__all__ = ["Network"]

#: Sink deliveries the calendar holds before the next injection makes
#: the due ones (memory only: every reader settles anyway).
_CALENDAR_BATCH = 64

#: The values ``Network(state_backend=...)`` still accepts.
_BACKENDS = (None, "objects", "soa")


class Network:
    """A packet network with pluggable per-node service disciplines.

    Per-session hot state lives in one slot-indexed
    :class:`~repro.net.session_table.SessionTable` shared by every node
    and scheduler.  ``state_backend`` selects nothing: the argument and
    the constant :attr:`state_backend` attribute are kept, as inert
    labels, for ``benchmarks/ledger/`` until a benchmark PR renames
    them.
    """

    #: What ``benchmarks/ledger/`` records per run; always ``"soa"``.
    state_backend = "soa"

    def __init__(self, *, sim: Optional[Simulator] = None, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 l_max_network: Optional[float] = None,
                 sanitizer: Optional["Sanitizer"] = None,
                 state_backend: Optional[str] = None) -> None:
        self.sim = sim or Simulator()
        if state_backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown state_backend {state_backend!r}; "
                f"expected one of {_BACKENDS}")
        self.session_table = SessionTable()
        if sanitizer is None and os.environ.get("REPRO_SANITIZE"):
            # Lazy import: the sanitizer module (and the env check
            # itself) must cost nothing on the default path; with
            # ``verify/__init__`` empty it compiles no static analyzer.
            from repro.analysis.verify.sanitizer import (
                Sanitizer as _Sanitizer,
                sanitize_enabled,
            )
            if sanitize_enabled(os.environ.get("REPRO_SANITIZE")):
                sanitizer = _Sanitizer()
        #: Conservation-law checker (``--sanitize`` /
        #: ``REPRO_SANITIZE=1``); shared with the kernel, every node,
        #: every scheduler, and the admission controller.  None in
        #: normal runs — the hooks are single ``is not None`` checks.
        self.sanitizer = sanitizer
        if sanitizer is not None:
            self.sim.sanitizer = sanitizer
        self.streams = RandomStreams(seed)
        self.tracer = tracer or Tracer(False)
        self.nodes: Dict[str, ServerNode] = {}
        self.sessions: Dict[str, Session] = {}
        self._sinks: Dict[str, Sink] = {}
        #: Sink deliveries not yet made: ``(arrival time, packet)`` in
        #: time order, appended by last-hop completions.
        self._calendar: deque = deque()
        self.sources: List[object] = []
        #: ``L_MAX``: the maximum packet length allowed in the network
        #: (paper eq. 9 and eq. 13). Grows automatically as sessions
        #: register unless pinned explicitly here.
        self._l_max_network = l_max_network
        self._l_max_seen = 0.0
        #: Sessions removed while packets were still in flight:
        #: id -> (session, keep_sink). Finalized when the last packet
        #: reaches its sink or is dropped.
        self._draining: Dict[str, Tuple[Session, bool]] = {}
        #: Callbacks waiting for a draining session to finalize.
        self._drained_callbacks: Dict[str, List[Callable[[], None]]] = {}
        #: The armed fault injector, if any (see repro.faults); None in
        #: fault-free runs, so the delivery path pays one check.
        self.faults: Optional["FaultInjector"] = None
        #: Set when this network is one shard of a space-parallel run
        #: (see :mod:`repro.sim.parallel`); None in serial runs, so the
        #: forwarding path pays one ``is None`` check per transmission.
        self.shard: Optional["ShardContext"] = None

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, scheduler, *, capacity: float,
                 propagation: float = 0.0) -> ServerNode:
        """Create a server node with one outgoing link."""
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node name {name!r}")
        link = Link(capacity, propagation)
        node = ServerNode(name, link, scheduler, self.sim, self.tracer,
                          self.session_table)
        node.network = self
        if self.sanitizer is not None:
            node.sanitizer = self.sanitizer
            scheduler.sanitizer = self.sanitizer
        self.nodes[name] = node
        return node

    def add_session(self, session: Session, *, keep_samples: bool = True,
                    max_samples: Optional[int] = None,
                    warmup: float = 0.0,
                    keep_packets: bool = False,
                    sink: Optional[Sink] = None) -> Sink:
        """Register a session on every node of its route; create its sink.

        Pass ``sink`` to attach an existing (possibly shared) sink
        instead of creating a dedicated one — the heavy-traffic
        experiments aggregate 10^5 sessions into one
        :class:`~repro.net.sink.SharedSink` this way.

        Transactional: checks run before any write, and a scheduler's
        refusal (HRR's frame budget) is rolled back on every node.
        """
        session_id = session.id
        sessions = self.sessions
        nodes = self.nodes
        if session_id in sessions:
            raise ConfigurationError(f"duplicate session id {session_id!r}")
        if session_id in self._draining:
            raise ConfigurationError(
                f"session id {session_id!r} is still draining after "
                f"removal; let its in-flight packets arrive first")
        route = session.route
        for name in route:
            if name not in nodes:
                raise ConfigurationError(
                    f"session {session_id!r} routes through unknown nodes "
                    f"{[n for n in route if n not in nodes]}")
        if session.slot >= 0:
            raise ConfigurationError(
                f"session object {session_id!r} already holds slot "
                f"{session.slot} of a live network's session table; "
                f"remove it there first or build a fresh Session")
        if sink is None:
            sink = Sink(session_id, keep_samples=keep_samples,
                        max_samples=max_samples, warmup=warmup,
                        keep_packets=keep_packets)
        session.slot = self.session_table.acquire(session)
        try:
            for name in route:
                nodes[name].register_session(session)
        except Exception:
            for accepted in route[:route.index(name)]:
                nodes[accepted].forget_session(session_id)
            self.session_table.release(session_id)
            session.slot = -1
            raise
        sessions[session_id] = session
        if session.l_max > self._l_max_seen:
            self._l_max_seen = session.l_max
        self._sinks[session_id] = sink
        return sink

    def remove_session(self, session_id: str, *,
                       keep_sink: bool = True) -> None:
        """Tear a session out of the network (drain-then-forget).

        Drops the session from the routing table immediately, so its
        reserved rate stops counting and new traffic cannot be added
        for it. Per-node scheduler and buffer state — and, when
        ``keep_sink=False``, the sink — are cleared once the session
        has no packets in flight: right away if it already drained, or
        as soon as its last in-flight packet reaches the sink or is
        dropped. Stop the session's source before removal; long-running
        call churn relies on this to tear calls down mid-flight without
        waiting for the network to drain.
        """
        if self.shard is not None:
            # A removal's drain-then-forget bookkeeping needs a global
            # view of in-flight packets, which a single shard does not
            # have (the packet may be crossing a partition boundary).
            raise SimulationError(
                "remove_session is not supported in space-parallel "
                "(sharded) runs; run session churn serially")
        session = self.sessions.pop(session_id, None)
        if session is None:
            raise ConfigurationError(f"unknown session {session_id!r}")
        if self._in_flight(session) > 0:
            self._draining[session_id] = (session, keep_sink)
            # Its packets now travel as events, so the drain ends at
            # its own instant; the parked ones get an event at theirs.
            nodes = [self.nodes[name] for name in session.route]
            for settle, parked in [(self.settle_sinks, self._calendar)] \
                    + [(node.settle, node._inbox or ()) for node in nodes]:
                for time, packet in parked:
                    if packet.session is session:
                        self.sim.schedule_at(time, settle,
                                             priority=PRIORITY_NORMAL)
            return
        self._finalize_removal(session, keep_sink)

    def _in_flight(self, session: Session) -> int:
        """Packets injected but not yet delivered to the sink or dropped."""
        delivered = self.sinks[session.id].received
        dropped = sum(self.nodes[name].drop_count(session.id)
                      for name in session.route)
        return session.packets_sent - delivered - dropped

    def _finalize_removal(self, session: Session,
                          keep_sink: bool) -> None:
        """Clear per-node state once the session has fully drained."""
        for node_name in session.route:
            node = self.nodes[node_name]
            node.settle()
            node.forget_session(session.id)
        self.session_table.release(session.id)
        session.slot = -1
        self._draining.pop(session.id, None)
        if not keep_sink:
            self._sinks.pop(session.id, None)
        for callback in self._drained_callbacks.pop(session.id, ()):
            callback()

    def notify_when_drained(self, session_id: str,
                            callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``session_id`` has no packets in flight.

        Fires immediately when the session is not draining (already
        finalized, or never removed); otherwise it runs right after
        :meth:`_finalize_removal`, i.e. at the deterministic instant
        the last in-flight packet reaches its sink or is dropped.
        Fault recovery uses this to re-admit a torn-down session
        without colliding with stale per-node state.
        """
        if session_id in self._draining:
            self._drained_callbacks.setdefault(session_id, []) \
                .append(callback)
            return
        callback()

    def _drain_progress(self, session_id: str) -> None:
        """A draining session's packet arrived or dropped; maybe finalize."""
        entry = self._draining.get(session_id)
        if entry is None:
            return
        session, keep_sink = entry
        if self._in_flight(session) <= 0:
            self._finalize_removal(session, keep_sink)

    def packet_dropped(self, packet: Packet) -> None:
        """A node dropped ``packet`` (finite buffer); track draining."""
        if self._draining:
            self._drain_progress(packet.session.id)

    @property
    def l_max(self) -> float:
        """``L_MAX``, the largest packet length allowed in the network."""
        if self._l_max_network is not None:
            return self._l_max_network
        if self._l_max_seen > 0:
            return self._l_max_seen
        raise ConfigurationError(
            "L_MAX unknown: no sessions registered and no explicit value")

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def inject(self, session: Session, length: float) -> Packet:
        """A source hands the network a fully generated packet *now*.

        The packet's last bit is considered to arrive at the first node
        of the session's route at the current instant, which is the
        origin of the end-to-end delay measurement.
        """
        if session.id not in self.sessions:
            raise SimulationError(
                f"session {session.id!r} is not registered (removed or "
                f"never added) but its source is still injecting; stop "
                f"the source before remove_session")
        # Written so NaN fails it too; the hop path divides this length
        # by link capacities without looking at it again.
        if not 0 < length <= session.l_max:
            raise SimulationError(
                f"session {session.id!r} generated a packet of {length} bits; "
                f"lengths must be positive and must not exceed its "
                f"declared l_max {session.l_max}")
        if len(self._calendar) > _CALENDAR_BATCH:
            self.settle_sinks()
        session.packets_sent += 1
        packet = Packet(session, session.packets_sent, length, self.sim.now)
        packet.hop_index = 0
        san = self.sanitizer
        if san is not None:
            san.on_inject(packet)
        self.nodes[session.route[0]].receive(packet)
        return packet

    def deliver(self, packet: Packet) -> None:
        """A packet's last bit reached its sink, as an event of its own."""
        san = self.sanitizer
        if san is not None:
            san.on_sink(packet)
        session_id = packet.session.id
        self.sinks[session_id].receive(packet, self.sim.now)
        if self._draining:
            self._drain_progress(session_id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def add_source(self, source) -> None:
        """Track a traffic source so :meth:`run` can start it."""
        self.sources.append(source)

    def run(self, duration: float) -> None:
        """Start all sources (idempotently) and run for ``duration`` seconds.

        Under ``--sanitize``, end-of-run balance checks execute here
        and a :class:`~repro.analysis.verify.sanitizer.SanitizerError`
        is raised when any invariant was violated during the run.
        """
        for source in self.sources:
            start = getattr(source, "start", None)
            if start is not None and not getattr(source, "started", False):
                start()
        self.sim.run(until=duration)
        self.settle()
        san = self.sanitizer
        if san is not None:
            san.finalize(self)
            if san.violations or san.dropped_violations:
                from repro.analysis.verify.sanitizer import SanitizerError
                raise SanitizerError(san.report().to_json())

    def settle_sinks(self) -> None:
        """Make every sink delivery that is due by now."""
        now = self.sim.now
        calendar = self._calendar
        sinks = self._sinks
        san = self.sanitizer
        while calendar and calendar[0][0] <= now:
            time, packet = calendar.popleft()
            if san is not None:
                san.on_sink(packet)
            session_id = packet.session.id
            sinks[session_id].receive(packet, time)
            if self._draining:
                self._drain_progress(session_id)

    def settle(self) -> None:
        """Apply every parked arrival, release and delivery due by now
        (:meth:`run` ends with this; the views do their part on access)."""
        for name in sorted(self.nodes):
            self.nodes[name].settle()
        self.settle_sinks()

    @property
    def sinks(self) -> Dict[str, Sink]:
        """Session id -> sink, every delivery due by now already made."""
        if self._calendar:
            self.settle_sinks()
        return self._sinks

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def sink(self, session_id: str) -> Sink:
        return self.sinks[session_id]

    def node(self, name: str) -> ServerNode:
        return self.nodes[name]

    def reserved_rate(self, node_name: str) -> float:
        """Sum of reserved rates of sessions traversing ``node_name``."""
        return sum(s.rate for s in self.sessions.values()
                   if node_name in s.route)
