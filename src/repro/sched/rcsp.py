"""Rate-Controlled Static-Priority queueing (Zhang & Ferrari 1993).

RCSP separates *rate control* from *delay control*:

* a per-session **rate regulator** holds each packet until it conforms
  to the session's declared minimum spacing ``x_min`` (eligibility
  ``e_i = max(t_i, e_{i-1} + x_min)``);
* eligible packets enter one of ``P`` static-priority **FCFS queues**;
  the server always takes from the highest-priority non-empty queue.

Each priority level carries a local delay bound; admission at a level
requires the level's (and all higher levels') worst-case backlog to fit
within the bound — we expose :func:`rcsp_admissible` implementing the
utilization-style test from the paper's description.

RCSP's significance in the comparison (paper §4) is architectural: it
avoids both framing and sorted priority queues. Here it serves as the
second regulator-based baseline next to Jitter-EDD.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler

__all__ = ["RCSP", "rcsp_admissible"]


def rcsp_admissible(levels: Sequence[float],
                    admitted: Sequence[Tuple[int, float, float]],
                    capacity: float) -> bool:
    """Check the static-priority delay bounds.

    Parameters
    ----------
    levels:
        Local delay bound of each priority level, increasing with the
        level index (level 0 = highest priority, smallest bound).
    admitted:
        Tuples ``(level, x_min, l_max)`` per admitted session.
    capacity:
        Link rate in bit/s.

    The test bounds level ``p``'s worst-case queueing by the maximal
    work from levels ``0..p`` arriving in any interval of length
    ``levels[p]`` (each session contributing at most
    ``ceil((d + x_min)/x_min)`` packets) plus one lower-priority packet
    in service. Sufficient, not necessary — the same flavour as the
    original paper's schedulability condition.
    """
    if list(levels) != sorted(levels):
        raise ConfigurationError("RCSP level bounds must be non-decreasing")
    for p, d_p in enumerate(levels):
        work = 0.0
        for level, x_min, l_max in admitted:
            if level <= p:
                packets = math.ceil((d_p + x_min) / x_min)
                work += packets * l_max / capacity
        lower = [l_max for level, _, l_max in admitted if level > p]
        blocking = max(lower) / capacity if lower else 0.0
        if work + blocking > d_p + 1e-12:
            return False
    return True


class RCSP(Scheduler):
    """Rate regulators feeding static-priority FCFS queues.

    Parameters
    ----------
    levels:
        Per-level local delay bounds in seconds (level 0 served first).
    assignment:
        session id -> level index. Sessions not listed go to the lowest
        priority level.
    x_min:
        session id -> minimum packet spacing; defaults to
        ``l_max / rate`` (peak = reserved rate, as in the original
        RCSP admission).
    """

    def __init__(self, levels: Sequence[float],
                 assignment: Optional[Dict[str, int]] = None,
                 x_min: Optional[Dict[str, float]] = None) -> None:
        super().__init__()
        if not levels:
            raise ConfigurationError("RCSP needs at least one priority level")
        self.levels = [float(d) for d in levels]
        if self.levels != sorted(self.levels):
            raise ConfigurationError(
                "RCSP level bounds must be non-decreasing")
        self.assignment: Dict[str, int] = dict(assignment or {})
        self.x_min: Dict[str, float] = dict(x_min or {})
        self._queues: List[Deque[Packet]] = [deque() for _ in self.levels]
        self._last_eligible: Dict[str, float] = {}

    def _level_of(self, session: Session) -> int:
        return self.assignment.get(session.id, len(self.levels) - 1)

    def _x_min_of(self, session: Session) -> float:
        # The default is derived, never stored: ``x_min`` is the
        # constructor's configuration and outlives every teardown.
        return self.x_min.get(session.id, session.l_max / session.rate)

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        previous = self._last_eligible.get(session.id)
        if previous is None:
            eligible_at = now
        else:
            eligible_at = max(now, previous + self._x_min_of(session))
        self._last_eligible[session.id] = eligible_at
        packet.eligible_time = eligible_at
        packet.deadline = eligible_at + self.levels[self._level_of(session)]
        if eligible_at <= now:
            self._queues[self._level_of(session)].append(packet)
        else:
            self._hold(packet, eligible_at)

    def _release(self, packet: Packet) -> None:
        self._queues[self._level_of(packet.session)].append(packet)

    def next_packet(self, now: float) -> Optional[Packet]:
        for queue in self._queues:
            if queue:
                return queue.popleft()
        return None

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        super().on_transmit_complete(packet, now)
        packet.holding_time = 0.0

    def forget_session(self, session_id: str) -> None:
        self._last_eligible.pop(session_id, None)

    def _queued(self) -> int:
        return sum(len(q) for q in self._queues)
