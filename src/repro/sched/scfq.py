"""Self-Clocked Fair Queueing (Golestani, INFOCOM '94).

The paper's reference [12]: a fair-queueing scheme that avoids tracking
GPS virtual time exactly. The virtual time is *self-clocked* — it is
simply the service tag of the packet currently in service — so tagging
is O(1) with no piecewise GPS emulation:

    F_i = max(v(t_i), F_{i-1,s}) + L_i / r_s

where ``v(t)`` is the tag of the in-service packet (zero when the
system is idle, at which point per-session tags reset too).

Included as the third fair-queueing point of comparison next to WFQ:
same isolation flavour, simpler mechanics, slightly weaker delay
bounds. Its tags, like WFQ's, live in virtual time — in contrast with
Leave-in-Time's real-time deadlines (the paper's §4 implementability
argument).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.packet import Packet
from repro.sched.base import Scheduler
from repro.sched.calendar_queue import HeapDeadlineQueue

__all__ = ["SCFQ"]


class SCFQ(Scheduler):
    """Self-clocked fair queueing: tag by the in-service packet's tag."""

    def __init__(self) -> None:
        super().__init__()
        self._eligible = HeapDeadlineQueue()
        self._virtual_time = 0.0
        self._last_finish: Dict[str, float] = {}
        self._in_service = False

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        start = max(self._virtual_time,
                    self._last_finish.get(session.id, 0.0))
        tag = start + packet.length / session.rate
        self._last_finish[session.id] = tag
        packet.eligible_time = now
        packet.deadline = tag
        self._eligible.push(packet)

    def next_packet(self, now: float) -> Optional[Packet]:
        packet = self._eligible.pop()
        if packet is not None:
            self._virtual_time = packet.deadline
            self._in_service = True
        return packet

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        # Virtual-time tags are not real-time deadlines; skip lateness.
        packet.holding_time = 0.0
        self._in_service = False
        if len(self._eligible) == 0:
            # System empty: self-clocked time (and tags) reset.
            self._virtual_time = 0.0
            self._last_finish.clear()

    def forget_session(self, session_id: str) -> None:
        self._last_finish.pop(session_id, None)

    def _queued(self) -> int:
        return len(self._eligible)

    @property
    def virtual_time(self) -> float:
        return self._virtual_time
