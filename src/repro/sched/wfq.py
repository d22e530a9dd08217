"""Weighted Fair Queueing (PGPS) — Demers/Keshav/Shenker, Parekh/Gallager.

WFQ emulates bit-by-bit round robin: each packet is stamped with the
*virtual finishing time* it would have under Generalized Processor
Sharing (GPS) with weights equal to reserved rates, and packets are
served in increasing stamp order.

The implementation tracks GPS virtual time ``V(t)`` exactly:

* while some session is GPS-backlogged, ``dV/dt = C / Σ_{backlogged} r_j``;
* a packet with stamp ``F`` departs the GPS system when ``V`` reaches
  ``F``; departures shrink the backlogged set piecewise;
* stamps follow ``S_i = max(V(t_i), F_{i-1})``, ``F_i = S_i + L_i/r_s``.

Virtual time only needs to be evaluated at packet arrivals, so the
update loop advances ``V`` over the GPS departures that occurred since
the previous arrival.

The paper's §4 point — that the PGPS end-to-end delay bound for
token-bucket sessions equals Leave-in-Time's (eq. 15) — is checked in
``benchmarks/test_pgps_equivalence.py`` both analytically and by
simulating both disciplines on identical traffic.
"""

from __future__ import annotations

import heapq
from typing import Dict

from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import DeadlineScheduler

__all__ = ["WFQ"]


class WFQ(DeadlineScheduler):
    """Packet-by-packet GPS: serve in increasing virtual finish time."""

    def __init__(self) -> None:
        super().__init__()
        #: GPS virtual time V, as of real time ``_t_last``.
        self.virtual_time = 0.0
        self._t_last = 0.0
        #: Min-heap of (finish_tag, session_id, order, session) for
        #: packets still in the emulated GPS system; ``order`` (arrival
        #: count) settles ties before they reach the session object.
        self._gps_heap: list = []
        self._gps_order = 0
        #: Packets in the GPS system per flow — per Session object, so a
        #: session re-admitted under its old id (and maybe a new rate)
        #: is a flow of its own beside the old one's last packets.
        #: Absent at zero.
        self._gps_counts: Dict[Session, int] = {}
        #: Σ r_j over sessions with GPS backlog.
        self._active_rate = 0.0
        #: Last finish tag per session (for the max(V, F_{i-1}) rule).
        self._last_finish: Dict[str, float] = {}

    def _advance(self, t: float) -> None:
        """Advance virtual time from the last arrival to real time ``t``."""
        capacity = self.capacity
        heap = self._gps_heap
        counts = self._gps_counts
        while heap:
            f_min, _, _, session = heap[0]
            if self._active_rate <= 0:  # pragma: no cover - defensive
                break
            # Real time needed for V to reach f_min.
            needed = (f_min - self.virtual_time) * self._active_rate / capacity
            depart_at = self._t_last + needed
            if depart_at > t:
                break
            heapq.heappop(heap)
            self.virtual_time = f_min
            self._t_last = depart_at
            remaining = counts[session] - 1
            if remaining:
                counts[session] = remaining
                continue
            del counts[session]
            self._active_rate -= session.rate
            if abs(self._active_rate) < 1e-12:
                self._active_rate = 0.0
        if heap and self._active_rate > 0:
            self.virtual_time += ((t - self._t_last) * capacity
                                  / self._active_rate)
        self._t_last = t

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        session_id, rate = session.id, session.rate
        self._advance(now)
        start = max(self.virtual_time, self._last_finish.get(session_id, 0.0))
        finish = start + packet.length / rate
        self._last_finish[session_id] = finish
        count = self._gps_counts.get(session, 0)
        if count == 0:
            self._active_rate += rate
        self._gps_counts[session] = count + 1
        self._gps_order = order = self._gps_order + 1
        heapq.heappush(self._gps_heap, (finish, session_id, order, session))
        packet.eligible_time = now
        # The virtual finish tag plays the deadline role for queueing.
        # Note it is in *virtual* time units, unlike Leave-in-Time's
        # real-time deadlines — one of the paper's §4 contrasts.
        packet.deadline = finish
        self._push(packet)

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        # Lateness against a virtual-time stamp is meaningless; skip the
        # base-class observation.
        packet.holding_time = 0.0

    def forget_session(self, session_id: str) -> None:
        """Drop the session's last finish tag after teardown.

        GPS may still hold packets PGPS already sent; they leave with
        their own rate when ``V`` passes their tags, and the count goes
        with the last of them.
        """
        self._last_finish.pop(session_id, None)
