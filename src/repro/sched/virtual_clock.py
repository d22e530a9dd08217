"""VirtualClock (L. Zhang, 1990): the baseline Leave-in-Time builds on.

Each packet is stamped with the transmission deadline (eq. 2)

    F_i = max(t_i, F_{i-1}) + L_i / r_s,      F_0 = t_1

and packets from all sessions are served in increasing deadline order.
The discipline is work-conserving.

This standalone implementation exists so tests can verify the paper's
claim that Leave-in-Time with admission control procedure 1, one class,
``ε = 0`` and no jitter control behaves *identically* to VirtualClock —
the equivalence is checked packet-by-packet in
``tests/sched/test_equivalence.py`` rather than assumed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sched.calendar_queue import HeapDeadlineQueue

__all__ = ["VirtualClock"]


class VirtualClock(Scheduler):
    """Work-conserving deadline scheduler with eq.-2 stamps."""

    def __init__(self) -> None:
        super().__init__()
        self._eligible = HeapDeadlineQueue()
        #: F_{i-1} per session id; absent until the first packet.
        self._previous_deadline: Dict[str, float] = {}

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        previous = self._previous_deadline.get(session.id, now)
        base = now if now > previous else previous
        packet.eligible_time = now
        packet.deadline = base + packet.length / session.rate
        self._previous_deadline[session.id] = packet.deadline
        self._eligible.push(packet)

    def next_packet(self, now: float) -> Optional[Packet]:
        return self._eligible.pop()

    def forget_session(self, session_id: str) -> None:
        self._previous_deadline.pop(session_id, None)

    def _queued(self) -> int:
        return len(self._eligible)
