"""Server nodes: one outgoing link plus a pluggable service discipline.

A :class:`ServerNode` implements the paper's store-and-forward timing
exactly:

* a packet *arrives* when its last bit arrives;
* transmitting a packet of length ``L`` occupies the link for ``L/C``;
* the packet's actual finishing transmission time (``F̂``) is recorded
  and handed to the scheduler (Leave-in-Time derives the downstream
  holding time from it);
* delivery to the next node (or sink) happens a propagation delay ``Γ``
  after transmission finishes.

Decision epochs (``docs/simulator.md``): a transmitting node cannot act
on an arrival before its own next completion, so a completion whose
next hop is busy *parks* the packet in that node's inbox, stamped
``now + Γ``, instead of buying a kernel event.  The owner takes parked
arrivals in — each at its own instant, in order — whenever it looks at
its queue; when it goes idle they become events again.  The tracer, and
so whoever consumes its records, is handed that instant and changes
nothing; a link-up, first of its instant, settles what is due *before*
it and wakes the node (``repro.faults.injector``).

The node also measures per-session buffer occupancy the way the paper's
Figures 12-13 do: sampled at the instant a packet's last bit arrives,
counting queued, held, *and in-transmission* bits of that session.

Occupancy, peak and drop counters are columns of the network's
:class:`~repro.net.session_table.SessionTable`, indexed by the packet's
dense ``session.slot`` — 24 bytes of array rows per session and node,
no per-session object and no dict probe on the arrival path (see
``docs/performance.md``); a buffer limit is a sparse slot -> bits
dict.  Reports and tests read them through the dict-shaped views
(``buffer_bits`` etc.) over the network's sessions routed here.

Slot invariant: :meth:`ServerNode.receive` is the one place that checks
``slot >= 0``.  Everything downstream of it (the scheduler hooks,
``_finish_transmission``, ``fault_drop``) indexes ``session.slot``
unguarded, relying on ``Network`` releasing a slot only once the
session's in-flight count is zero — no packet that passed ``receive``
outlives its row.  A ``-1`` there would index every column's last
row; the table property suite under ``tests/properties`` keeps that
row free and checks it still reads its fill values after in-flight
removals.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from math import inf
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.session import Session
from repro.net.session_table import SessionTable
from repro.sched.base import Scheduler
from repro.sim.kernel import PRIORITY_NORMAL, Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import NodeFaultState
    from repro.net.network import Network

__all__ = ["ServerNode"]


class ServerNode:
    """One server: scheduler + outgoing link.

    ``table`` is the owning network's session table; a node built on
    its own gets a private, empty one — it constructs, but only a
    :class:`~repro.net.network.Network` hands sessions the slots its
    data path needs.
    """

    def __init__(self, name: str, link: Link, scheduler: "Scheduler",
                 sim: Simulator, tracer: Optional[Tracer] = None,
                 table: Optional[SessionTable] = None) -> None:
        self.name = name
        self.link = link
        self.scheduler = scheduler
        self.sim = sim
        self.tracer = tracer or Tracer(False)
        self.table = table if table is not None else SessionTable()
        #: Buffer columns, indexed by ``packet.session.slot``.
        group = self.table.group()
        self._bits = group.add("bits", 0.0)
        self._peak = group.add("peak", 0.0)
        self._drops = group.add("drops", 0)
        #: Buffer limits, slot -> bits (sparse: absent is unlimited).
        self._limits: Dict[int, float] = {}
        #: Arrival-sampled occupancy series for monitored sessions,
        #: keyed by slot (sparse — monitoring is rare).
        self._samples: Dict[int, List[float]] = {}
        scheduler.bind(self, sim, self.tracer)
        #: The scheduler's three data-path entry points, bound once:
        #: each is called once per packet-hop.
        self._on_arrival = scheduler.on_arrival
        self._next_packet = scheduler.next_packet
        self._on_transmit_complete = scheduler.on_transmit_complete
        #: Parked arrivals, ``(arrival time, packet)`` in time order,
        #: appended by upstream completions while this node transmits
        #: (None: the discipline is not deferrable), and the scheduler's
        #: holds.  Mind the attribute count: CPython 3.11 keeps an
        #: instance's values inline only below 30, and the hop path is
        #: 5 % slower past that (tests/net/test_decision_epochs.py).
        self._inbox: Optional[deque] = \
            deque() if scheduler.deferrable else None
        self._holds = scheduler._holds
        #: When the link last went busy after idling for longer than a
        #: transmission: upstream parks only once that spell has
        #: outlasted its propagation delay (it will likely outlast
        #: another, and the arrival finds this node busy).
        self._busy_since = 0.0
        self.network: Optional["Network"] = None
        #: Armed fault state, set by FaultInjector.install for nodes a
        #: plan references; None otherwise, so the fault-free data path
        #: pays exactly one ``is not None`` check per hook.
        self.faults: Optional["NodeFaultState"] = None

        self.transmitting: Optional[Packet] = None
        self.packets_served = 0
        self.bits_served = 0.0
        #: Link-busy seconds, accrued when a transmission *completes*
        #: (see :meth:`utilization` for the in-flight pro-rating).
        self.busy_time = 0.0
        self._tx_started_at = 0.0
        self._tx_time = 0.0

    # ------------------------------------------------------------------
    # Session registration
    # ------------------------------------------------------------------
    def add_members(self, sessions: Iterable[Session]) -> None:
        """Start the buffer series of the monitored ``sessions`` routed
        through here, which hold their slots
        (:meth:`Network.add_sessions
        <repro.net.network.Network.add_sessions>`)."""
        samples = self._samples
        for session in sessions:
            if session.monitor_buffer:
                samples[session.slot] = []

    def forget_session(self, session: Session) -> None:
        """Drop a drained session's scheduler state, buffer limit and
        monitor series, so a recycled slot inherits none of them.

        Its table row is reset by :meth:`SessionTable.release
        <repro.net.session_table.SessionTable.release>`.
        """
        self.scheduler.forget_session(session.id)
        if self._limits:
            self._limits.pop(session.slot, None)
        if self._samples:
            self._samples.pop(session.slot, None)

    def _slot(self, session_id: str) -> int:
        """Slot of a session the network holds (live or draining), or
        ``-1``."""
        network = self.network
        session = network.registered(session_id) \
            if network is not None else None
        return session.slot if session is not None else -1

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def set_buffer_limit(self, session_id: str, bits: float) -> None:
        """Enforce a per-session buffer of ``bits`` at this node
        (``inf``: no limit)."""
        try:
            positive = bits > 0
        except TypeError:
            raise ConfigurationError(
                f"node {self.name}: buffer limit for session "
                f"{session_id!r} must be a number of bits, got {bits!r}"
            ) from None
        if not positive:  # NaN too: no occupancy would exceed it
            raise SimulationError(
                f"buffer limit must be positive, got {bits}")
        slot = self._slot(session_id)
        if slot < 0:
            raise SimulationError(
                f"cannot set a buffer limit for unknown session "
                f"{session_id!r}; add the session to the network first")
        self._limits[slot] = float(bits)

    def receive(self, packet: Packet, now: Optional[float] = None) -> None:
        """A packet's last bit arrived at this node.

        ``now`` is passed for a parked arrival; one that is its own
        event reads the clock and lets earlier parked ones in first.
        """
        if now is None:
            now = self.sim.now
            inbox = self._inbox
            if inbox and inbox[0][0] <= now:
                self._take_in(now, packet.finish_time)
        packet.arrival_time = now
        session = packet.session
        slot = session.slot
        if slot < 0:
            raise SimulationError(
                f"packet of session {session.id!r} reached node "
                f"{self.name} without a session-table slot; add the "
                f"session through Network.add_session before it sends")
        bits = self._bits
        occupancy = bits[slot] + packet.length
        if self._limits and occupancy > self._limits.get(slot, inf) + 1e-9:
            self._drops[slot] += 1
            self._drop_on_arrival(packet, now)
            return
        bits[slot] = occupancy
        if occupancy > self._peak[slot]:
            self._peak[slot] = occupancy
        if self._samples:
            samples = self._samples.get(slot)
            if samples is not None:
                samples.append(occupancy)

        if self._holds and self._holds[0][0] <= now:
            self.scheduler._mature(now, packet.finish_time)
        self._on_arrival(packet, now)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "arrival", self.name, session.id, packet.seq)
        if self.transmitting is None:
            self._try_start()

    def _drop_on_arrival(self, packet: Packet, now: float) -> None:
        """The rest of a finite-buffer drop, off the arrival path."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "drop", self.name, packet.session.id,
                        packet.seq)
        if self.network is not None:
            self.network.packet_dropped(packet)
        if self.transmitting is None:
            self._try_start()  # idle: the next parked arrival's turn

    def _take_in(self, now: float, created: float = inf) -> None:
        """Receive the parked arrivals due by ``now``, oldest first.

        One due exactly ``now`` goes first only if it was sent before
        the event being handled was ``created``: their ``seq`` order.
        """
        inbox = self._inbox
        while inbox:
            time, packet = inbox[0]
            if time > now or (time == now
                              and packet.finish_time >= created):
                return
            inbox.popleft()
            self.receive(packet, time)

    def settle(self, created: float = inf) -> None:
        """Take in every parked arrival and regulator release due by now
        (``created=-inf``: strictly before now — all a fault timer may)."""
        now = self.sim.now
        inbox = self._inbox
        if inbox and inbox[0][0] <= now:
            self._take_in(now, created)
        if self._holds:
            self.scheduler._mature(now, created)

    def wakeup(self, created: float = inf) -> None:
        """New work may be available (a timer fired, a fault cleared)."""
        self.settle(created)
        self._try_start()

    def _idle(self) -> None:
        """Going idle: the next parked arrival becomes the event it would
        have been; the earliest timer-less hold gets one wake timer."""
        if self._inbox:
            time, packet = self._inbox.popleft()
            self.sim.schedule_at(time, self.receive, packet,
                                 priority=PRIORITY_NORMAL)
        if self._holds:
            self.scheduler._arm_wake()

    def _try_start(self) -> None:
        if self.transmitting is not None:
            return
        faults = self.faults
        if faults is not None and faults.blocked:
            # Link down: packets stay queued (and held packets keep
            # maturing); the link-up calls wakeup().
            return
        sim = self.sim
        now = sim.now
        packet = self._next_packet(now)
        if packet is None:
            if self._inbox or self._holds:
                self._idle()
            return
        self.transmitting = packet
        if now - self._tx_started_at > 2.0 * self._tx_time:
            self._busy_since = now
        # Lengths are validated once, at Network.inject.
        transmission = packet.length / self.link.capacity
        # busy_time accrues at completion; remember the start so
        # utilization() can pro-rate a transmission still in flight.
        self._tx_started_at = now
        self._tx_time = transmission
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "tx_start", self.name, packet.session.id,
                        packet.seq, deadline=packet.deadline)
        # Tie-break: NORMAL, so a completion coinciding with an arrival
        # resolves by insertion order — the arrival was scheduled first
        # and is processed first, which is the store-and-forward order
        # the buffer-occupancy sampling assumes.
        sim.schedule(transmission, self._finish_transmission, packet,
                     priority=PRIORITY_NORMAL)

    def _finish_transmission(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        if self.transmitting is not packet:
            # Unreachable by construction: only this handler clears
            # ``transmitting``, once per completion event.  Kept as a
            # fail-loud guard for future scheduling bugs.
            raise SimulationError(
                f"node {self.name}: transmission completion for a packet "
                f"that is not on the link")
        inbox = self._inbox
        if inbox and inbox[0][0] <= now:
            self._take_in(now, self._tx_started_at)
        packet.finish_time = now
        self._on_transmit_complete(packet, now)

        session = packet.session
        self._bits[session.slot] -= packet.length
        self.packets_served += 1
        self.bits_served += packet.length
        self.busy_time += self._tx_time
        self.transmitting = None

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "tx_end", self.name, session.id, packet.seq)
        network = self.network
        if network is None:
            raise SimulationError(
                f"node {self.name} is not attached to a network")
        faults = self.faults
        link = self.link
        shard = network.shard
        if faults is not None and faults.transmit_verdict(packet):
            self.fault_drop(packet)
        elif shard is None or not shard.intercept(self, packet):
            # Tie-break: NORMAL. With zero propagation the arrival lands
            # at this same instant, after this handler's dequeue below:
            # it never preempts this node's own dequeue decision.
            # Sharded runs intercept *before* the propagation delay: Γ is
            # the shard lookahead, so the envelope leaves at ``now + Γ``.
            route = session.route
            hop = packet.hop_index + 1
            if hop == len(route):
                target = None
                parked = network._calendar
            else:
                packet.hop_index = hop
                target = network.nodes[route[hop]]
                parked = target._inbox \
                    if target.transmitting is not None and \
                    now - target._busy_since > link.propagation else None
            # Park it, unless its session is draining (the drain ends
            # on an event) or it would land out of order (unequal Γ).
            if parked is not None and not (
                    (network._draining and session.id in network._draining)
                    or (parked and parked[-1][0] > now + link.propagation)):
                parked.append((now + link.propagation, packet))
            elif target is None:
                sim.schedule(link.propagation, network.deliver, packet,
                             priority=PRIORITY_NORMAL)
            else:
                sim.schedule(link.propagation, target.receive, packet,
                             priority=PRIORITY_NORMAL)
        # Start the next transmission: ``_try_start`` inlined.  Only a
        # loss above can have put a packet on the link since it was
        # cleared (a draining session's last drop settles this node).
        if faults is not None and (
                faults.blocked or self.transmitting is not None):
            return
        if self._holds and self._holds[0][0] <= now:
            self.scheduler._mature(now, self._tx_started_at)
        head = self._next_packet(now)
        if head is None:
            if self._inbox or self._holds:
                self._idle()
            return
        self.transmitting = head
        transmission = head.length / link.capacity
        self._tx_started_at = now
        self._tx_time = transmission
        if tracer.enabled:
            tracer.emit(now, "tx_start", self.name, head.session.id,
                        head.seq, deadline=head.deadline)
        sim.schedule(transmission, self._finish_transmission, head,
                     priority=PRIORITY_NORMAL)

    def fault_drop(self, packet: Packet) -> None:
        """``packet`` was lost on this node's link.

        Its bits already left the occupancy accounting at completion.
        The drop lands in the same per-session ``drops`` counter the
        finite-buffer path uses, which keeps ``Network._in_flight`` —
        and with it the drain-then-forget machinery — exact under
        faults.
        """
        session = packet.session
        session_id = session.id
        self._drops[session.slot] += 1
        drops = self.faults.drops
        drops[session_id] = drops.get(session_id, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, "fault_drop", self.name, session_id,
                        packet.seq)
        if self.network is not None:
            self.network.packet_dropped(packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _routed(self) -> Iterator[Session]:
        """The network's live and draining sessions routed through here,
        in slot order (placed by slot, not sorted), once all that is due
        by now is taken in."""
        self.settle()
        network = self.network
        if network is None:
            return iter(())
        name = self.name
        by_slot = [None] * self.table._fresh
        for session in chain(network.sessions.values(),
                             network._draining.values()):
            if name in session.route:
                by_slot[session.slot] = session
        return filter(None, by_slot)

    def _rows(self, column: Sequence[float]) -> Dict[str, float]:
        """``column`` as a dict over the sessions routed through here."""
        return {session.id: column[session.slot]
                for session in self._routed()}

    @property
    def buffer_bits(self) -> Dict[str, float]:
        """Bits of each session currently at this node (read-only view)."""
        return self._rows(self._bits)

    @property
    def buffer_peak(self) -> Dict[str, float]:
        """Peak per-session occupancy (read-only view)."""
        return self._rows(self._peak)

    @property
    def buffer_samples(self) -> Dict[str, List[float]]:
        """Arrival-sampled occupancy (bits) of monitored sessions."""
        samples = self._samples
        return {session.id: samples[session.slot]
                for session in self._routed() if session.slot in samples}

    @property
    def drops(self) -> Dict[str, int]:
        """Dropped-packet counts for sessions that dropped (read-only)."""
        drops = self._drops
        return {session.id: drops[session.slot]
                for session in self._routed() if drops[session.slot]}

    def drop_count(self, session_id: str) -> int:
        """Packets of ``session_id`` dropped at this node."""
        self.settle()
        slot = self._slot(session_id)
        return self._drops[slot] if slot >= 0 else 0

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of time the link has been busy since time zero.

        ``busy_time`` accrues when a transmission completes; a
        transmission still on the link contributes only its elapsed
        fraction, so stopping a run mid-transmission no longer
        overstates utilization (it used to be charged in full at
        ``tx_start``).
        """
        horizon = self.sim.now if now is None else now
        if horizon <= 0:
            return 0.0
        busy = self.busy_time
        if self.transmitting is not None:
            elapsed = horizon - self._tx_started_at
            if elapsed > 0:
                busy += elapsed if elapsed < self._tx_time else self._tx_time
        return busy / horizon

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ServerNode {self.name} {self.link!r}>"
