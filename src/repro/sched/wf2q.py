"""WF²Q — Worst-case Fair Weighted Fair Queueing (Bennett & Zhang '96).

A one-year-later refinement of WFQ included here as an extension
baseline: WFQ may run *ahead* of GPS by serving packets whose GPS
service has not begun, which lets a session get far ahead and then
starve briefly (the "worst-case fairness" problem). WF²Q restricts the
server's choice to packets whose GPS service has already *started* —
virtual start tag ≤ current virtual time — and among those picks the
smallest finish tag. Its delay bound matches PGPS's while its service
never deviates from GPS by more than one maximum packet.

Implementation detail: we reuse the exact
:class:`~repro.sched.wfq.GpsVirtualTime` tracker. Unlike WFQ — which
only needs virtual time at arrivals — WF²Q needs it at *service*
instants too, so :meth:`next_packet` advances the tracker before the
eligibility scan. The eligible-set scan uses a start-tag-ordered heap
of candidates plus a finish-ordered heap of released packets; each
packet moves between them at most once, keeping operations O(log n).
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.net.packet import Packet
from repro.sched.base import Scheduler
from repro.sched.wfq import GpsVirtualTime

__all__ = ["WF2Q"]

#: Slack when comparing virtual start tags to virtual time: GPS
#: arithmetic accumulates float error and a packet whose start equals
#: V must count as started.
_TAG_EPSILON = 1e-9


class WF2Q(Scheduler):
    """Smallest eligible virtual finish time first."""

    def __init__(self) -> None:
        super().__init__()
        self._gps: Optional[GpsVirtualTime] = None
        #: Not yet GPS-started packets, ordered by virtual start tag.
        self._pending: list = []
        #: GPS-started packets, ordered by virtual finish tag.
        self._ready: list = []
        self._seq = 0
        self._count = 0

    def _tracker(self) -> GpsVirtualTime:
        if self._gps is None:
            self._gps = GpsVirtualTime(self.capacity)
        return self._gps

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        tracker = self._tracker()
        tracker.advance(now)
        finish = tracker.stamp(session.id, session.rate, packet.length)
        start = finish - packet.length / session.rate
        packet.eligible_time = now
        packet.deadline = finish  # virtual units, as in WFQ
        heapq.heappush(self._pending, (start, self._seq, packet))
        self._seq += 1
        self._count += 1

    def _release_started(self, v_now: float) -> None:
        while self._pending and self._pending[0][0] <= v_now + _TAG_EPSILON:
            start, seq, packet = heapq.heappop(self._pending)
            heapq.heappush(self._ready, (packet.deadline, seq, packet))

    def next_packet(self, now: float) -> Optional[Packet]:
        if self._count == 0:
            return None
        tracker = self._tracker()
        tracker.advance(now)
        self._release_started(tracker.v)
        if not self._ready:
            # All queued packets have future virtual start tags. This
            # can only happen transiently (V advances whenever the
            # real server would be busy); serve the earliest-starting
            # packet rather than idle — the standard WF2Q+ relaxation.
            if self._pending:
                start, seq, packet = heapq.heappop(self._pending)
                self._count -= 1
                return packet
            return None
        _, _, packet = heapq.heappop(self._ready)
        self._count -= 1
        return packet

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        # Virtual-time tags; lateness is not meaningful.
        packet.holding_time = 0.0

    def forget_session(self, session_id: str) -> None:
        tracker = self._gps
        if tracker is None:
            return
        if self.sim is not None:
            tracker.advance(self.sim.now)
        if tracker._gps_counts.get(session_id, 0) == 0:
            tracker._gps_counts.pop(session_id, None)
            tracker._last_finish.pop(session_id, None)
            tracker._rates.pop(session_id, None)

    def _queued(self) -> int:
        return self._count

    @property
    def virtual_time(self) -> float:
        return self._tracker().v
