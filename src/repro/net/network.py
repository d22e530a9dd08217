"""Network assembly: nodes, sessions, sources, sinks, and delivery.

A :class:`Network` wires :class:`~repro.net.node.ServerNode` objects
together implicitly through session routes (the paper's model is
connection-oriented: packets follow their session's fixed node list, so
no routing table is needed). It owns the simulator and the random
streams, hands every registered session its sink (``Session.sink``),
and exposes :meth:`inject` for traffic sources and :meth:`run` for
experiments.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Mapping
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import Link
from repro.net.node import ServerNode
from repro.net.packet import Packet
from repro.net.session import Session
from repro.net.session_table import SessionTable
from repro.net.sink import Sink
from repro.sched.base import Scheduler
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

#: The base class's no-op registration hook: a scheduler whose class
#: keeps it has nothing to accept or refuse.
_NO_HOOK = Scheduler.register_session

_L_MAX = attrgetter("l_max")

#: The values ``Network(state_backend=...)`` still accepts.
_BACKENDS = (None, "objects", "soa")


class Network:
    """A packet network with pluggable per-node service disciplines.

    Sessions register through :meth:`add_sessions` — one call for a
    whole population, all or nothing; :meth:`add_session` is that call
    for one session.  Per-session hot state lives in one slot-indexed
    :class:`~repro.net.session_table.SessionTable` shared by every node
    and scheduler, and a session carries its own sink
    (``Session.sink``): there is no id -> sink map for live or draining
    sessions, and :attr:`sinks` is a read-only view over them.
    ``state_backend`` selects nothing: the argument and the constant
    :attr:`state_backend` attribute are kept, as inert labels, for
    ``benchmarks/ledger/`` until a benchmark PR renames them.
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
        #: ``REPRO_SANITIZE=1``), fed by :attr:`tracer`; None normally.
        self.sanitizer = sanitizer
        self.streams = RandomStreams(seed)
        self.tracer = tracer or Tracer(False)
        self.nodes: Dict[str, ServerNode] = {}
        if sanitizer is not None:
            sanitizer.watch(self)
        self.sessions: Dict[str, Session] = {}
        #: Node name -> its scheduler, for the schedulers whose
        #: ``register_session`` hook is not the base class's no-op.
        self._hooked: Dict[str, Scheduler] = {}
        #: Sinks of sessions removed with ``keep_sink=True`` and
        #: drained; registering the id again replaces its entry.
        self._kept: Dict[str, Sink] = {}
        #: Sink deliveries not yet made: ``(arrival time, packet)`` in
        #: time order, appended by last-hop completions.
        self._calendar: deque = deque()
        #: The sources :meth:`run` starts: every source built on this
        #: network and not yet stopped (a stopped one leaves through
        #: :meth:`remove_source`).  Iterate a copy to stop sources in
        #: the loop.
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
        self.nodes[name] = node
        if type(scheduler).register_session is not _NO_HOOK:
            self._hooked[name] = scheduler
        return node

    def add_session(self, session: Session, *, sink: Optional[Sink] = None,
                    keep_samples: bool = True,
                    keep_packets: bool = False) -> Sink:
        """Register one session (:meth:`add_sessions` with ``(session,)``);
        returns its sink."""
        self.add_sessions((session,), sink=sink, keep_samples=keep_samples,
                          keep_packets=keep_packets)
        return session.sink

    def add_sessions(self, sessions: Iterable[Session], *,
                     sink: Optional[Sink] = None,
                     keep_samples: bool = True,
                     keep_packets: bool = False) -> None:
        """Register ``sessions`` on every node of their routes, in order.

        Each session gets a dedicated :class:`~repro.net.sink.Sink`
        built with the sink options, unless ``sink`` is given: then the
        whole batch shares it (the heavy-traffic experiments aggregate
        10^5 sessions into one plain Sink this way), and a sink option
        passed beside it is refused.  The sink goes on the session
        (``session.sink``) once its checks pass.

        All or nothing: a refusal — a failed check or a scheduler hook's
        (HRR's frame budget) — leaves the network as it was.  The ids
        the checks entered in :attr:`sessions` are taken out again and
        the hooks that accepted forget their sessions; slots, node
        columns and kept sinks are written only once every hook
        accepted (a refused session may carry the sink it would have
        had; nothing reads it).  A hook runs before its session holds a
        slot.  A list or tuple ``sessions`` is used without a copy.
        """
        if sink is not None:
            given = [name for name, value, default in (
                ("keep_samples", keep_samples, True),
                ("keep_packets", keep_packets, False)) if value != default]
            if given:
                raise ConfigurationError(
                    f"sink options {given} do nothing beside a given "
                    f"sink; build that Sink with them instead")
        live = self.sessions
        draining = self._draining
        nodes = self.nodes
        batch = sessions if isinstance(sessions, (list, tuple)) \
            else tuple(sessions)
        #: Route -> the batch's sessions on it (the whole batch while
        #: it has one route); a route's nodes are checked when it is
        #: first seen.
        routes: Dict[Tuple[str, ...], Sequence[Session]] = {}
        # A checked id is entered in ``live`` at once, which makes a
        # second one in the batch a duplicate; a refusal takes the
        # first ``checked`` out again.
        checked = 0
        try:
            for checked, session in enumerate(batch):
                session_id = session.id
                if session_id in live:
                    raise ConfigurationError(
                        f"duplicate session id {session_id!r}")
                if session_id in draining:
                    raise ConfigurationError(
                        f"session id {session_id!r} is still draining "
                        f"after removal; let its in-flight packets "
                        f"arrive first")
                route = session.route
                if route not in routes:
                    if not all(map(nodes.__contains__, route)):
                        raise ConfigurationError(
                            f"session {session_id!r} routes through "
                            f"unknown nodes "
                            f"{[n for n in route if n not in nodes]}")
                    routes[route] = batch
                if session.slot >= 0:
                    raise ConfigurationError(
                        f"session object {session_id!r} already holds "
                        f"slot {session.slot} of a live network's session "
                        f"table; remove it there first or build a fresh "
                        f"Session")
                session.sink = sink or Sink(session_id,
                                            keep_samples=keep_samples,
                                            keep_packets=keep_packets)
                live[session_id] = session
            checked = len(batch)
            if len(routes) > 1:
                routes = {route: [] for route in routes}
                for session in batch:
                    routes[session.route].append(session)
            if self._hooked:
                self._register_hooks(routes)
        except Exception:
            for session in batch[:checked]:
                del live[session.id]
            raise
        self.session_table.acquire(batch)
        for route, members in routes.items():
            for name in route:
                nodes[name].add_members(members)
        l_max = max(map(_L_MAX, batch), default=0.0)
        if l_max > self._l_max_seen:
            self._l_max_seen = l_max
        kept = self._kept
        if kept:
            for session in batch:
                kept.pop(session.id, None)

    def _register_hooks(self, routes: Dict[Tuple[str, ...],
                                           Sequence[Session]]) -> None:
        """Hand each batch session to every scheduler hook on its route;
        on a refusal, forget the ones already accepted and re-raise."""
        hooked = self._hooked
        accepted: List[Tuple[Scheduler, str]] = []
        try:
            for route, members in routes.items():
                for name in route:
                    scheduler = hooked.get(name)
                    if scheduler is not None:
                        for session in members:
                            scheduler.register_session(session)
                            accepted.append((scheduler, session.id))
        except Exception:
            for scheduler, session_id in reversed(accepted):
                scheduler.forget_session(session_id)
            raise

    def remove_session(self, session_id: str, *,
                       keep_sink: bool = True) -> None:
        """Tear a session out of the network (drain-then-forget).

        Drops the session from the routing table immediately, so its
        reserved rate stops counting and new traffic cannot be added
        for it. Per-node scheduler and buffer state — and, when
        ``keep_sink=False``, the sink — are cleared once the session
        has no packets in flight: right away if it already drained, or
        as soon as its last in-flight packet reaches the sink or is
        dropped. Stop the session's source before removal — which also
        takes the source out of :attr:`sources` and releases its own
        random stream; long-running call churn relies on this to tear
        calls down mid-flight without waiting for the network to drain,
        and to hold only the live calls' sources and streams.
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
        if self._calendar:
            self.settle_sinks()
        delivered = session.sink.received
        slot = session.slot
        dropped = 0
        for name in session.route:
            node = self.nodes[name]
            node.settle()  # the drops due by now
            dropped += node._drops[slot]
        return session.packets_sent - delivered - dropped

    def _finalize_removal(self, session: Session,
                          keep_sink: bool) -> None:
        """Clear per-node state once the session has fully drained."""
        san = self.sanitizer
        for node_name in session.route:
            node = self.nodes[node_name]
            node.settle()
            node.forget_session(session)
            if san is not None:
                san.forget_session(node_name, session.id)
        self.session_table.release(session.slot)
        session.slot = -1
        self._draining.pop(session.id, None)
        if keep_sink:
            self._kept[session.id] = session.sink
        else:
            session.sink = None
        for callback in self._drained_callbacks.pop(session.id, ()):
            callback()

    def registered(self, session_id: str) -> Optional[Session]:
        """The session ``session_id`` names here — live, or removed but
        still draining — or None."""
        session = self.sessions.get(session_id)
        if session is None and session_id in self._draining:
            session = self._draining[session_id][0]
        return session

    def notify_when_drained(self, session_id: str,
                            callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``session_id`` has no packets in flight.

        Fires immediately when the session is not draining (already
        finalized, or never removed); otherwise it runs right after
        :meth:`_finalize_removal`, i.e. at the deterministic instant
        the last in-flight packet reaches its sink or is dropped.
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
        if self._calendar:
            self.settle_sinks()  # the earlier deliveries first
        session = packet.session
        session.sink.receive(packet, self.sim.now)
        if self._draining:
            self._drain_progress(session.id)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def add_source(self, source) -> None:
        """Track a traffic source so :meth:`run` can start it."""
        self.sources.append(source)

    def remove_source(self, source) -> None:
        """Forget a stopped source; O(live sources)."""
        self.sources.remove(source)

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
        san = self.sanitizer
        while calendar and calendar[0][0] <= now:
            time, packet = calendar.popleft()
            if san is not None:
                san.on_sink(packet)
            session = packet.session
            session.sink.receive(packet, time)
            if self._draining:
                self._drain_progress(session.id)

    def settle(self) -> None:
        """Apply every parked arrival, release and delivery due by now
        (:meth:`run` ends with this; the views do their part on access)."""
        for name in sorted(self.nodes):
            self.nodes[name].settle()
        self.settle_sinks()

    @property
    def sinks(self) -> Mapping[str, Sink]:
        """Session id -> sink of every live, draining and kept session
        (read-only), every delivery due by now already made."""
        if self._calendar:
            self.settle_sinks()
        return _SinkView(self)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def sink(self, session_id: str) -> Sink:
        """The sink of ``session_id`` — live, draining, or removed with
        ``keep_sink`` — every delivery due by now already made."""
        if self._calendar:
            self.settle_sinks()
        session = self.registered(session_id)
        if session is None:
            return self._kept[session_id]
        return session.sink

    def node(self, name: str) -> ServerNode:
        return self.nodes[name]

    def reserved_rate(self, node_name: str) -> float:
        """Sum of reserved rates of sessions traversing ``node_name``."""
        return sum(s.rate for s in self.sessions.values()
                   if node_name in s.route)


class _SinkView(Mapping):
    """:attr:`Network.sinks`: the ids of live sessions, then of draining
    ones, then of kept sinks, each looked up as :meth:`Network.sink`
    does."""

    __slots__ = ("_network",)

    def __init__(self, network: Network) -> None:
        self._network = network

    def __getitem__(self, session_id: str) -> Sink:
        network = self._network
        session = network.sessions.get(session_id)  # the common case
        if session is None:
            return network.sink(session_id)
        return session.sink

    def __iter__(self) -> Iterator[str]:
        network = self._network
        yield from network.sessions
        yield from network._draining
        yield from network._kept

    def __len__(self) -> int:
        network = self._network
        return (len(network.sessions) + len(network._draining)
                + len(network._kept))
