"""Hierarchical Round Robin (Kalmanek/Kanakia/Keshav 1990).

A framing round-robin: each frame of length ``T`` grants every session
a budget of ``r_s · T`` bits. Within a frame, queued sessions are
served round-robin while they have budget; when no session has both a
queued packet and remaining budget, the server idles until the next
frame — HRR, like Stop-and-Go, is non-work-conserving and shares its
upper delay bound (but provides no lower bound, as the paper notes).

This is the single-level core of HRR; the "hierarchical" part of the
original (multiple frame sizes for different rate granularities) is
expressed here by instantiating one level — sufficient for the §4-style
comparisons, where the relevant behaviour is the framing delay.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import AdmissionError, ConfigurationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sim.kernel import PRIORITY_NORMAL

__all__ = ["HierarchicalRoundRobin"]


class HierarchicalRoundRobin(Scheduler):
    """Single-level framed round robin with per-frame bit budgets."""

    #: The frame timer and its budgets run off the simulator clock.
    deferrable = False

    def __init__(self, frame: float) -> None:
        super().__init__()
        if frame <= 0:
            raise ConfigurationError(
                f"frame length must be positive, got {frame}")
        self.frame = float(frame)
        self._queues: Dict[str, Deque[Packet]] = {}
        #: Round-robin service order (session ids).
        self._order: list = []
        self._budgets: Dict[str, float] = {}
        self._quota: Dict[str, float] = {}
        self._frame_timer_armed = False
        #: Absolute time of the next armed frame boundary. Advanced by
        #: exactly one frame per firing rather than recomputed with
        #: floor(now/frame): float rounding in the division can place
        #: the "next" boundary at the current instant, which would
        #: re-arm a zero-delay timer forever and freeze simulated time.
        self._next_boundary = 0.0
        self._reserved = 0.0

    def register_session(self, session: Session) -> None:
        if session.id in self._queues:
            return
        quota = session.rate * self.frame
        if quota < session.l_max:
            # A frame must fit at least one maximum packet, else the
            # session could never send one — the granularity coupling.
            quota = float(session.l_max)
        charged = quota / self.frame
        if self._reserved + charged > self.capacity + 1e-9:
            raise AdmissionError(
                f"HRR cannot fit session {session.id!r}",
                rule="hrr-bandwidth",
                node=self.node.name if self.node else None)
        self._reserved += charged
        self._queues[session.id] = deque()
        self._order.append(session.id)
        self._quota[session.id] = quota
        self._budgets[session.id] = quota

    def _arm_frame_timer(self) -> None:
        if self._frame_timer_armed:
            return
        self._frame_timer_armed = True
        sim = self.sim
        now = sim.now
        boundary = (math.floor(now / self.frame) + 1) * self.frame
        while boundary <= now:  # guard against float rounding
            boundary += self.frame
        self._next_boundary = boundary
        # Tie-break: NORMAL — the boundary callback keeps insertion
        # order against packet events at the same instant.
        sim.schedule_at(boundary, self._frame_boundary,
                             priority=PRIORITY_NORMAL)

    def _frame_boundary(self) -> None:
        self._frame_timer_armed = False
        for session_id, quota in self._quota.items():
            self._budgets[session_id] = quota
        if any(self._queues.values()):
            # Re-arm by advancing the stored boundary one whole frame —
            # never by re-deriving it from the current clock value.
            self._frame_timer_armed = True
            self._next_boundary += self.frame
            # Tie-break: NORMAL, same reasoning as above.
            self.sim.schedule_at(self._next_boundary,
                                 self._frame_boundary,
                                 priority=PRIORITY_NORMAL)
            self._wake_node()

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        if session.id not in self._queues:
            self.register_session(session)
        packet.eligible_time = now
        packet.deadline = now + 2.0 * self.frame
        self._queues[session.id].append(packet)
        self._arm_frame_timer()

    def next_packet(self, now: float) -> Optional[Packet]:
        # One full round-robin scan starting after the last served slot.
        order = self._order
        for _ in range(len(order)):
            session_id = order.pop(0)
            order.append(session_id)
            queue = self._queues[session_id]
            if not queue:
                continue
            head = queue[0]
            if self._budgets[session_id] + 1e-9 >= head.length:
                self._budgets[session_id] -= head.length
                queue.popleft()
                return head
        return None

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        super().on_transmit_complete(packet, now)
        packet.holding_time = 0.0

    def forget_session(self, session_id: str) -> None:
        """Release a drained session's slots and bandwidth share."""
        queue = self._queues.get(session_id)
        if queue:
            return  # still backlogged; keep state
        if session_id in self._queues:
            self._reserved -= self._quota[session_id] / self.frame
            del self._queues[session_id]
            self._order.remove(session_id)
            self._quota.pop(session_id, None)
            self._budgets.pop(session_id, None)

    def _queued(self) -> int:
        return sum(len(q) for q in self._queues.values())
