"""Delay-EDD and Jitter-EDD (Ferrari/Verma; Verma/Zhang/Ferrari).

Earliest-due-date disciplines: each packet receives a deadline equal to
its (eligibility time + the session's local delay bound ``d_s``), and
packets are served in increasing deadline order.

* **Delay-EDD** is work-conserving: eligibility = arrival.
* **Jitter-EDD** adds a delay regulator: the upstream node stamps the
  packet with how far *ahead of its local deadline* it finished
  (``A = max(0, F' − F̂')``), and the downstream regulator holds the
  packet for that long — reconstructing the traffic pattern and
  cancelling jitter accumulated upstream. Leave-in-Time's regulators
  (paper eq. 9) are this idea adapted to rate-coupled deadlines.

Unlike Leave-in-Time, the local delay bound is *not* coupled to the
reserved rate; admission requires a schedulability test instead. We
implement the classic single-busy-period test: with sessions sorted by
local bound, every prefix must satisfy ``Σ L_max/C ≤ d_j`` — see
:func:`edd_schedulable`.
"""

from __future__ import annotations

from math import inf, nan
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import DeadlineScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.session_table import SessionTable

__all__ = ["DelayEDD", "JitterEDD", "edd_schedulable"]


def edd_schedulable(offered: Sequence[Tuple[float, float]],
                    capacity: float) -> bool:
    """Single-busy-period EDD schedulability test.

    ``offered`` is a sequence of ``(d_local, l_max)`` pairs, one per
    session at this node. The test requires, for sessions sorted by
    local delay bound, that the total transmission time of every prefix
    fits within the prefix's largest bound:

        Σ_{k: d_k ≤ d_j} L_max,k / C  ≤  d_j   for every j.

    This is the deterministic worst case of all sessions' packets
    arriving simultaneously; it is sufficient (not necessary) and
    mirrors the role the paper assigns to EDD's "schedulability test at
    connection establishment time".
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    cumulative = 0.0
    for d_local, l_max in sorted(offered):
        cumulative += l_max / capacity
        if cumulative > d_local + 1e-12:
            return False
    return True


class DelayEDD(DeadlineScheduler):
    """Work-conserving earliest-due-date scheduling.

    Parameters
    ----------
    local_delays:
        Per-session local delay bound ``d_s`` in seconds, keyed by
        session id. A session not listed defaults to ``l_max / rate``
        (its packet service time at the reserved rate).  Each bound
        must be finite and non-negative.
    """

    def __init__(self,
                 local_delays: Optional[Dict[str, float]] = None) -> None:
        super().__init__()
        for session_id, bound in (local_delays or {}).items():
            if not 0 <= bound < inf:
                raise ConfigurationError(
                    f"local delay bound of session {session_id!r} must be "
                    f"finite and non-negative, got {bound}")
        #: Explicitly configured bounds (constructor argument); the
        #: per-session defaults are cached in the table column, so call
        #: churn never grows this dict, and teardown never shrinks it:
        #: a re-admitted session gets its configured bound back.
        self.local_delays: Dict[str, float] = dict(local_delays or {})

    def use_session_table(self, table: "SessionTable") -> None:
        #: Each session's resolved bound; NaN until its first packet.
        self._d_local = table.group().add("d_local", nan)

    def local_delay(self, session: Session) -> float:
        """``d_s`` of a session admitted to this node's network."""
        slot = session.slot
        bound = self._d_local[slot]
        if bound != bound:  # NaN: the session's first packet here
            bound = self.local_delays.get(session.id)
            if bound is None:
                bound = session.l_max / session.rate
            self._d_local[slot] = bound
        return bound

    def _eligibility(self, packet: Packet, now: float) -> float:
        """Delay-EDD: packets are eligible on arrival."""
        return now

    def on_arrival(self, packet: Packet, now: float) -> None:
        eligible_at = self._eligibility(packet, now)
        packet.eligible_time = eligible_at
        packet.deadline = eligible_at + self.local_delay(packet.session)
        if eligible_at <= now:
            self._push(packet)
        else:
            self._hold(packet, eligible_at)

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        super().on_transmit_complete(packet, now)
        packet.holding_time = 0.0


class JitterEDD(DelayEDD):
    """Delay-EDD plus per-hop delay regulators (jitter control).

    The ahead-of-deadline amount computed at this node is carried to
    the next node in the packet header, exactly as in Leave-in-Time —
    the field is :attr:`repro.net.packet.Packet.holding_time`.
    """

    def _eligibility(self, packet: Packet, now: float) -> float:
        if packet.hop_index == 0:
            return now
        return now + max(0.0, packet.holding_time)

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        super().on_transmit_complete(packet, now)
        if packet.session.is_last_hop(packet.hop_index):
            packet.holding_time = 0.0
            return
        packet.holding_time = max(0.0, packet.deadline - now)
