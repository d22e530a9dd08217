"""The scheduler contract every service discipline implements.

A :class:`~repro.net.node.ServerNode` owns one scheduler and drives it
through three calls:

* :meth:`Scheduler.on_arrival` — a packet's last bit arrived; the
  scheduler must eventually make it *eligible* (immediately for
  work-conserving disciplines; after a regulator hold otherwise).
* :meth:`Scheduler.next_packet` — the link went idle; return the
  eligible packet to transmit next, or ``None``.
* :meth:`Scheduler.on_transmit_complete` — the packet's last bit left;
  disciplines that stamp downstream header fields (Leave-in-Time,
  Jitter-EDD) do it here.

Disciplines that hold packets (regulators, frames) share one helper:
:meth:`Scheduler._hold` queues a packet by eligibility, and the node
calls :meth:`Scheduler._mature` before a push or pop that finds one due,
to hand it to the discipline's ``_release``.  A hold costs a kernel
event only under a non-deferrable discipline (the twin the differential
tests build); a tracer sees it mature (``"eligible"``, at its instant).
Every data-path hook works from the ``now`` it is handed, never from
``self.sim.now``: a parked arrival is taken in at its own instant.

Disciplines that serve eligible packets in increasing deadline order
(Leave-in-Time, EDD, WFQ) subclass :class:`DeadlineScheduler`, which
keeps them in one binary heap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from heapq import heapify, heappop, heappush
from math import inf, sqrt
from typing import List, NamedTuple, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sim.events import cancel
from repro.sim.kernel import PRIORITY_NORMAL, Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import ServerNode
    from repro.net.session_table import SessionTable

__all__ = ["Scheduler", "DeadlineScheduler"]

#: The stale handle a scheduler with no wake timer holds: at +inf, so
#: any hold is earlier, and cancelling it changes nothing.
_NO_WAKE = [inf, 0, -1, None, ()]


class Lateness(NamedTuple):
    """Finish − deadline over a scheduler's packets, as read on demand."""
    count: int
    maximum: Optional[float]  # None while nothing was observed
    mean: float
    stddev: float


class Scheduler(ABC):
    """Abstract service discipline attached to one server node."""

    #: May arrivals and holds wait for the node's next decision epoch?
    #: False for disciplines with timers of their own on the clock.
    deferrable = True

    def __init__(self) -> None:
        self.node: Optional["ServerNode"] = None
        self.sim: Optional[Simulator] = None
        self.tracer: Tracer = Tracer(False)
        #: finish_time − deadline where deadlines are assigned: count,
        #: maximum, Σ, Σ², updated inline; :attr:`lateness` reads them.
        self._late_count = 0
        self._late_max = -inf
        self._late_sum = self._late_sq = 0.0
        #: Held packets: a heap of ``(eligible_at, order, packet,
        #: timer or None)``, bound by the node — mutate in place.
        self._holds: list = []
        self._hold_order = 0
        #: The node's live wake timer; :data:`_NO_WAKE` when none is.
        self._wake_timer = _NO_WAKE

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, node: "ServerNode", sim: Simulator,
             tracer: Optional[Tracer] = None) -> None:
        """Attach this scheduler to its node. Called once by the node."""
        if self.node is not None:
            raise SimulationError(
                "scheduler instances cannot be shared between nodes")
        self.node = node
        self.sim = sim
        if tracer is not None:
            self.tracer = tracer
        self.use_session_table(node.table)

    def use_session_table(self, table: "SessionTable") -> None:
        """Declare per-session columns in the node's table (optional hook).

        Called once by :meth:`bind`.  Disciplines with per-session hot
        state (Leave-in-Time's F/K recursion, EDD's local bounds)
        override this to add a column group to the network's
        :class:`~repro.net.session_table.SessionTable`, whose rows the
        table resets when a session's slot is released; disciplines
        without per-session state (FCFS) have nothing to tabulate.
        """

    def register_session(self, session: Session) -> None:
        """Learn about a session before its first packet (optional hook).

        Disciplines with per-session state (reserved rates, regulators,
        frame slots) override this; the default accepts anything.  It
        runs before the session holds a table slot; raising refuses the
        whole :meth:`~repro.net.network.Network.add_sessions` batch,
        which then calls :meth:`forget_session` for every session this
        hook already accepted.
        """

    def forget_session(self, session_id: str) -> None:
        """Drop per-session state after teardown (optional hook).

        Called by :meth:`repro.net.network.Network.remove_session` once
        the session has drained. Disciplines holding per-session maps
        override this so long-running call churn does not accumulate
        state; the default has nothing to forget.
        """

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    @abstractmethod
    def on_arrival(self, packet: Packet, now: float) -> None:
        """Handle a fully arrived packet."""

    @abstractmethod
    def next_packet(self, now: float) -> Optional[Packet]:
        """Dequeue the eligible packet to transmit next, if any."""

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        """The packet's last bit left the server (default: record lateness)."""
        late = now - packet.deadline
        self._late_count += 1
        if late > self._late_max:
            self._late_max = late
        self._late_sum += late
        self._late_sq += late * late

    def _hold(self, packet: Packet, eligible_at: float) -> None:
        """Keep ``packet`` out of service until ``eligible_at``."""
        self._hold_order = order = self._hold_order + 1
        timer = None
        if not self.deferrable or self.node.network is None:
            # Tie-break: NORMAL — insertion order against same-instant
            # completions, as in the net layer.
            timer = self.sim.schedule_at(eligible_at, self._hold_expired,
                                         packet, priority=PRIORITY_NORMAL)
        heappush(self._holds, (eligible_at, order, packet, timer))

    def _mature(self, now: float, created: float = inf) -> None:
        """Release, in order, the timer-less holds that ended by ``now``.

        One ending exactly ``now`` goes first only if its packet arrived
        before the event being handled was ``created``: ``seq`` order.
        """
        holds = self._holds
        while holds:
            time, _, packet, timer = holds[0]
            if timer is not None or time > now or (
                    time == now and packet.arrival_time >= created):
                return
            heappop(holds)
            self._release(packet)
            if self.tracer.enabled:
                self.tracer.emit(time, "eligible", self.node.name,
                                 packet.session.id, packet.seq)

    def _arm_wake(self) -> None:
        """The node went idle: one wake timer at the earliest timer-less
        hold, unless one is armed at or before it.  A later one is
        cancelled: a scheduler holds at most one live wake timer."""
        at, _, _, timer = self._holds[0]
        armed = self._wake_timer
        if timer is None and at < armed[0]:
            cancel(armed)
            # Tie-break: after NORMAL.  Arrivals and completions mature
            # the holds themselves, in ``seq`` order (``created``); the
            # wake releases blindly, so it looks last of its instant.
            self._wake_timer = self.sim.schedule_at(
                at, self._wake, priority=PRIORITY_NORMAL + 1)

    def _wake(self) -> None:
        """The wake timer fired: the earliest hold is due."""
        self._wake_timer = _NO_WAKE
        self.node.wakeup()

    def _hold_expired(self, packet: Packet) -> None:
        """A hold's own timer fired: release (and trace) up to it."""
        holds = self._holds
        tracer = self.tracer
        while holds:
            held = heappop(holds)[2]
            self._release(held)
            # The class's own: the tests' per-instance twin traces too.
            if tracer.enabled and type(self).deferrable:
                tracer.emit(self.sim.now, "eligible", self.node.name,
                            held.session.id, held.seq)
            if held is packet:
                break
        self._wake_node()

    def _unhold(self, session_id: str) -> List[Packet]:
        """Remove and return one session's held packets."""
        holds = self._holds
        if not holds:
            return []
        taken = sorted(entry for entry in holds
                       if entry[2].session.id == session_id)
        for entry in taken:
            holds.remove(entry)
            if entry[3] is not None:
                cancel(entry[3])
        heapify(holds)
        return [entry[2] for entry in taken]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lateness(self) -> Lateness:
        """Lateness so far (paper: saturated unless ``maximum < L_MAX/C``).
        ``stddev`` (n − 1) comes from Σ and Σ²: lateness spreads about as
        wide as its mean is long, so the cancellation costs ~n·ε, no digits.
        Where the squares are subnormal their rounding is absolute, up to
        one ulp of zero each: there σ is good to √(n·ulp(0)) ≈ 2e-162·√n."""
        count = self._late_count
        mean = self._late_sum / count if count else 0.0
        spread = max(0.0, self._late_sq - count * mean * mean)  # Σ(x − mean)²
        return Lateness(count, self._late_max if count else None, mean,
                        sqrt(spread / max(count - 1, 1)))

    @property
    def backlog(self) -> int:
        """Number of packets currently queued or held at this scheduler."""
        held = self.held  # first: it takes in the node's due arrivals
        return self._queued() + held

    @property
    def held(self) -> int:
        """Packets currently inside regulators (due arrivals taken in)."""
        if self.node is not None:
            self.node.settle()
        return len(self._holds)

    @abstractmethod
    def _queued(self) -> int:
        """Packets in the discipline's own queue(s), holds excluded."""

    def _wake_node(self) -> None:
        if self.node is not None:
            self.node.wakeup()

    @property
    def capacity(self) -> float:
        """Outgoing link capacity of the node this scheduler serves."""
        if self.node is None:
            raise SimulationError("scheduler is not bound to a node")
        return self.node.link.capacity


class DeadlineScheduler(Scheduler):
    """Serves eligible packets in increasing ``deadline`` order, FIFO
    among equal deadlines (paper §2, step 3).  A subclass stamps
    ``packet.deadline`` in :meth:`on_arrival` and hands the packet to
    :meth:`_push` (or :meth:`Scheduler._hold`, whose expiry calls
    ``_release``, by default the same push)."""

    def __init__(self) -> None:
        super().__init__()
        #: Eligible packets: a heap of ``(deadline, order, packet)``.
        self._eligible: list = []
        self._order = 0

    def _push(self, packet: Packet) -> None:
        """Queue an eligible packet for service."""
        self._order = order = self._order + 1
        heappush(self._eligible, (packet.deadline, order, packet))

    _release = _push

    def next_packet(self, now: float) -> Optional[Packet]:
        eligible = self._eligible
        if eligible:
            return heappop(eligible)[2]
        return None

    def _queued(self) -> int:
        return len(self._eligible)
