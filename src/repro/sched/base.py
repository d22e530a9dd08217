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

Disciplines that hold packets (regulators, frames) use the simulator's
timers and call :meth:`~repro.net.node.ServerNode.wakeup` when new work
becomes available; the node never needs to know why it was woken.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sim.kernel import Simulator
from repro.sim.monitor import Tally
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.verify.sanitizer import Sanitizer
    from repro.net.node import ServerNode
    from repro.net.session_table import SessionTable

__all__ = ["Scheduler"]


class Scheduler(ABC):
    """Abstract service discipline attached to one server node."""

    def __init__(self) -> None:
        self.node: Optional["ServerNode"] = None
        self.sim: Optional[Simulator] = None
        self.tracer: Tracer = Tracer(False)
        #: Conservation-law checker (``--sanitize``), set by
        #: ``Network.add_node``; None on the default path.
        self.sanitizer: Optional["Sanitizer"] = None
        #: finish_time − deadline for disciplines that assign deadlines;
        #: Leave-in-Time's scheduler-saturation check is
        #: ``max lateness < L_MAX / C`` (paper: F̂ < F + L_MAX/C).
        self.lateness = Tally("lateness")

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
        frame slots) override this; the default accepts anything.
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
        self.lateness.observe(now - packet.deadline)

    # ------------------------------------------------------------------
    # Fault hooks (repro.faults)
    # ------------------------------------------------------------------
    def flush(self, now: float) -> List[Packet]:
        """Remove and return every queued packet (node restart).

        The default drains through :meth:`next_packet`, which covers
        any work-conserving discipline.  Packets inside *untracked*
        regulator holds survive a flush and rejoin on release;
        disciplines that track their hold events (Leave-in-Time)
        override this to flush those too.  The caller owns the returned
        packets and must account for them (the injector routes them to
        :meth:`repro.net.node.ServerNode.fault_drop`).
        """
        flushed: List[Packet] = []
        while True:
            packet = self.next_packet(now)
            if packet is None:
                return flushed
            flushed.append(packet)

    def drop_expired(self, now: float) -> List[Packet]:
        """Remove and return queued packets whose deadline passed.

        Used by the ``drop_expired`` link-recovery policy: after an
        outage, packets whose transmission deadline lapsed during the
        downtime are worthless to a real-time session, so the injector
        discards them instead of releasing a stale burst.  The default
        returns nothing — correct for disciplines whose deadlines do
        not encode timeliness (FCFS stamps deadline = arrival, so *all*
        its queued packets would look expired).  Deadline-ordered
        disciplines override.
        """
        return []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Number of packets currently queued or held at this scheduler."""
        raise NotImplementedError

    def _wake_node(self) -> None:
        if self.node is not None:
            self.node.wakeup()

    @property
    def capacity(self) -> float:
        """Outgoing link capacity of the node this scheduler serves."""
        if self.node is None:
            raise SimulationError("scheduler is not bound to a node")
        return self.node.link.capacity
