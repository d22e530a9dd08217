"""Stop-and-Go queueing (Golestani 1990-91): the framing baseline.

Time on every link is divided into frames of length ``T``. A packet
arriving during frame ``k`` may not be forwarded before frame ``k+1``
begins, even if the server is idle — the discipline is
non-work-conserving by construction. Within the eligible set, older
frames are served first and FIFO inside a frame.

Admission requires sessions to be ``(r, T)``-smooth: no more than
``r·T`` bits arrive in any frame (checked by
:func:`repro.traffic.token_bucket.is_rt_smooth` on generated traces and
by the :meth:`StopAndGo.admit` bandwidth test here).

The paper's §4 comparison hinges on Stop-and-Go's delay being
``αHT ± T`` with ``α ∈ [1, 2)`` and the bandwidth-granularity coupling
(allocation in steps of ``L/T``); :mod:`repro.bounds.comparisons`
reproduces that analysis.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

from repro.errors import AdmissionError, ConfigurationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler

__all__ = ["StopAndGo"]


class StopAndGo(Scheduler):
    """Framing scheduler with frame length ``T`` (seconds).

    Frames are synchronized to simulated time zero on every link, the
    simplest of Golestani's framing variants; the ±T slack in the delay
    bound absorbs arbitrary frame phase, so bounds are unaffected.
    """

    #: Frame boundaries are instants of the simulator clock.
    deferrable = False

    def __init__(self, frame: float) -> None:
        super().__init__()
        if frame <= 0:
            raise ConfigurationError(
                f"frame length must be positive, got {frame}")
        self.frame = float(frame)
        #: Eligible packets, FIFO (eligibility instants are frame
        #: boundaries, so FIFO-by-release preserves frame order).
        self._eligible: Deque[Packet] = deque()
        self._reserved = 0.0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, session: Session) -> None:
        """Reserve bandwidth for a session; rejects over-commitment.

        Stop-and-Go allocates bandwidth in quanta of bits-per-frame, so
        the admissible rate is ``ceil(r·T / L) · L / T`` when packets
        have fixed length L; we conservatively charge the declared rate
        rounded up to a whole number of maximum-length packets per
        frame, exposing the granularity coupling the paper criticizes.
        """
        packets_per_frame = math.ceil(session.rate * self.frame
                                      / session.l_max)
        charged = packets_per_frame * session.l_max / self.frame
        if self._reserved + charged > self.capacity + 1e-9:
            raise AdmissionError(
                f"Stop-and-Go cannot fit session {session.id!r}: "
                f"{self._reserved + charged:.0f} > {self.capacity:.0f} bps",
                rule="stop-and-go-bandwidth",
                node=self.node.name if self.node else None)
        self._reserved += charged

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _next_frame_start(self, now: float) -> float:
        return (math.floor(now / self.frame) + 1) * self.frame

    def on_arrival(self, packet: Packet, now: float) -> None:
        eligible_at = self._next_frame_start(now)
        packet.eligible_time = eligible_at
        # Local delay bound under S&G is 2T per hop; use it as the
        # deadline so lateness monitoring stays meaningful.
        packet.deadline = now + 2.0 * self.frame
        self._hold(packet, eligible_at)

    def _release(self, packet: Packet) -> None:
        self._eligible.append(packet)

    def next_packet(self, now: float) -> Optional[Packet]:
        if not self._eligible:
            return None
        return self._eligible.popleft()

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        super().on_transmit_complete(packet, now)
        packet.holding_time = 0.0

    def _queued(self) -> int:
        return len(self._eligible)
