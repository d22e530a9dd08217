"""Deficit Round Robin (Shreedhar & Varghese, SIGCOMM '95).

The *other* scheduling paper of Leave-in-Time's SIGCOMM: an O(1)
fair-queueing approximation with no timestamps at all. Each backlogged
session holds a deficit counter; every round it gains its quantum, and
it may transmit head packets while the counter covers them. Fairness is
proportional to quanta; the error versus GPS is bounded by one maximum
packet per round.

Included as a contemporaneous baseline on the *efficiency* axis the
paper cares about (its own answer is the approximate O(1) deadline
queue): DRR is work-conserving, needs no sorted queue, but offers
far weaker latency bounds than rate-based deadline disciplines — a
low-rate session waits a whole round of everyone else's quanta.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler

__all__ = ["DeficitRoundRobin"]


class DeficitRoundRobin(Scheduler):
    """Quantum-based round robin with per-session deficit counters.

    Parameters
    ----------
    quantum_scale:
        A session's per-round quantum in bits is
        ``quantum_scale · rate / min_rate_seen`` — i.e. quanta are kept
        proportional to reserved rates with the smallest session
        getting ``quantum_scale`` bits. The default gives every session
        at least one maximum ATM cell per round.
    """

    def __init__(self, quantum_scale: float = 424.0) -> None:
        super().__init__()
        if quantum_scale <= 0:
            raise ConfigurationError(
                f"quantum scale must be positive, got {quantum_scale}")
        self.quantum_scale = float(quantum_scale)
        self._queues: Dict[str, Deque[Packet]] = {}
        self._deficit: Dict[str, float] = {}
        self._rates: Dict[str, float] = {}
        #: Active list: sessions with queued packets, in round order.
        self._active: Deque[str] = deque()
        self._backlog = 0

    def _quantum_of(self, session_id: str) -> float:
        min_rate = min(self._rates.values())
        return self.quantum_scale * self._rates[session_id] / min_rate

    def register_session(self, session: Session) -> None:
        if session.id not in self._queues:
            self._queues[session.id] = deque()
            self._deficit[session.id] = 0.0
            self._rates[session.id] = session.rate

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        if session.id not in self._queues:
            self.register_session(session)
        packet.eligible_time = now
        packet.deadline = now  # DRR assigns no deadline
        queue = self._queues[session.id]
        if not queue:
            # Newly backlogged sessions join the round with a fresh
            # (zero) deficit, per the original algorithm.
            self._deficit[session.id] = 0.0
            self._active.append(session.id)
        queue.append(packet)
        self._backlog += 1

    def next_packet(self, now: float) -> Optional[Packet]:
        active = self._active
        if not active:
            return None
        # Terminates: every full rotation adds at least one quantum to
        # every active session's deficit, so the smallest head packet
        # is eventually covered.
        while True:
            session_id = active[0]
            queue = self._queues[session_id]
            head = queue[0]
            if self._deficit[session_id] >= head.length - 1e-9:
                self._deficit[session_id] -= head.length
                queue.popleft()
                self._backlog -= 1
                if not queue:
                    active.popleft()
                    self._deficit[session_id] = 0.0
                return head
            # Head does not fit: grant the quantum and rotate.
            self._deficit[session_id] += self._quantum_of(session_id)
            active.rotate(-1)

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        packet.holding_time = 0.0

    def forget_session(self, session_id: str) -> None:
        """Drop a drained session's queue, deficit, and round slot."""
        queue = self._queues.get(session_id)
        if queue:
            return  # still backlogged; keep state
        self._queues.pop(session_id, None)
        self._deficit.pop(session_id, None)
        self._rates.pop(session_id, None)
        if session_id in self._active:
            self._active.remove(session_id)

    def _queued(self) -> int:
        return self._backlog
