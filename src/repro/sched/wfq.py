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
from typing import Dict, Optional

from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sched.calendar_queue import HeapDeadlineQueue

__all__ = ["WFQ", "GpsVirtualTime"]


class GpsVirtualTime:
    """Exact GPS virtual-time tracker for one server.

    ``advance(t)`` rolls virtual time forward to real time ``t``;
    ``stamp(session_id, rate, length)`` assigns the next packet's
    virtual start/finish pair at the current instant.
    """

    __slots__ = ("capacity", "v", "_t_last", "_gps_heap",
                 "_gps_counts", "_active_rate", "_rates",
                 "_last_finish")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.v = 0.0
        self._t_last = 0.0
        #: Min-heap of (finish_tag, session_id) for packets still in
        #: the emulated GPS system.
        self._gps_heap: list = []
        #: Packets in the GPS system per session.
        self._gps_counts: Dict[str, int] = {}
        #: Σ r_j over sessions with GPS backlog.
        self._active_rate = 0.0
        self._rates: Dict[str, float] = {}
        #: Last finish tag per session (for the max(V, F_{i-1}) rule).
        self._last_finish: Dict[str, float] = {}

    def advance(self, t: float) -> None:
        """Advance virtual time from the last event to real time ``t``."""
        while self._gps_heap:
            f_min, session_id = self._gps_heap[0]
            if self._active_rate <= 0:  # pragma: no cover - defensive
                break
            # Real time needed for V to reach f_min.
            needed = (f_min - self.v) * self._active_rate / self.capacity
            depart_at = self._t_last + needed
            if depart_at > t:
                break
            heapq.heappop(self._gps_heap)
            self.v = f_min
            self._t_last = depart_at
            remaining = self._gps_counts[session_id] - 1
            self._gps_counts[session_id] = remaining
            if remaining == 0:
                self._active_rate -= self._rates[session_id]
                if abs(self._active_rate) < 1e-12:
                    self._active_rate = 0.0
        if self._gps_heap and self._active_rate > 0:
            self.v += (t - self._t_last) * self.capacity / self._active_rate
        self._t_last = t

    def stamp(self, session_id: str, rate: float, length: float) -> float:
        """Assign virtual start/finish to a packet arriving *now*.

        :meth:`advance` must already have been called for the arrival
        instant. Returns the finish tag.
        """
        self._rates[session_id] = rate
        start = max(self.v, self._last_finish.get(session_id, 0.0))
        finish = start + length / rate
        self._last_finish[session_id] = finish
        count = self._gps_counts.get(session_id, 0)
        if count == 0:
            self._active_rate += rate
        self._gps_counts[session_id] = count + 1
        heapq.heappush(self._gps_heap, (finish, session_id))
        return finish


class WFQ(Scheduler):
    """Packet-by-packet GPS: serve in increasing virtual finish time."""

    def __init__(self) -> None:
        super().__init__()
        self._eligible = HeapDeadlineQueue()
        self._gps: Optional[GpsVirtualTime] = None

    def _tracker(self) -> GpsVirtualTime:
        if self._gps is None:
            self._gps = GpsVirtualTime(self.capacity)
        return self._gps

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        tracker = self._tracker()
        tracker.advance(now)
        finish_tag = tracker.stamp(session.id, session.rate, packet.length)
        packet.eligible_time = now
        # The virtual finish tag plays the deadline role for queueing.
        # Note it is in *virtual* time units, unlike Leave-in-Time's
        # real-time deadlines — one of the paper's §4 contrasts.
        packet.deadline = finish_tag
        self._eligible.push(packet)

    def next_packet(self, now: float) -> Optional[Packet]:
        return self._eligible.pop()

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        # Lateness against a virtual-time stamp is meaningless; skip the
        # base-class observation.
        packet.holding_time = 0.0

    def forget_session(self, session_id: str) -> None:
        """Drop per-session tags once the session has drained.

        Only safe (and only performed) when the session has no packets
        left in the emulated GPS system.
        """
        tracker = self._gps
        if tracker is None:
            return
        # GPS departures are processed lazily (at arrival instants);
        # catch up to the current time so a drained session is
        # recognized as such.
        if self.sim is not None:
            tracker.advance(self.sim.now)
        if tracker._gps_counts.get(session_id, 0) == 0:
            tracker._gps_counts.pop(session_id, None)
            tracker._last_finish.pop(session_id, None)
            tracker._rates.pop(session_id, None)

    def _queued(self) -> int:
        return len(self._eligible)

    @property
    def virtual_time(self) -> float:
        """Current GPS virtual time (diagnostics and tests)."""
        return self._tracker().v
