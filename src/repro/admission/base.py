"""Shared admission-procedure machinery.

A procedure instance guards ONE server node (one outgoing link). It
tracks admitted sessions, enforces the rate-reservation constraint
(paper eq. 18) common to all three procedures, and mints the
:class:`~repro.sched.policy.DelayPolicy` that fixes ``d_{i,s}`` at this
node.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict

from repro.errors import AdmissionError
from repro.net.session import Session
from repro.sched.policy import DelayPolicy

__all__ = ["Procedure"]

#: Slack for floating-point equality in the ≤-capacity tests; the
#: paper's configurations commit capacity *exactly* (48 × 32 kbit/s on
#: a 1536 kbit/s link), which must pass.
RATE_EPSILON = 1e-6


class Procedure(ABC):
    """Base class: one admission procedure guarding one link."""

    def __init__(self, capacity: float) -> None:
        if capacity <= 0:
            raise AdmissionError(
                f"link capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        #: The admitted set: session id -> reserved rate r.
        self._rates: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Common state
    # ------------------------------------------------------------------
    @property
    def reserved_rate(self) -> float:
        """Σ r_j over admitted sessions, correctly rounded (``fsum``),
        so it does not depend on the order sessions came and went."""
        return math.fsum(self._rates.values())

    @property
    def admitted_count(self) -> int:
        return len(self._rates)

    def is_admitted(self, session_id: str) -> bool:
        return session_id in self._rates

    def check_rate_reservation(self, session: Session) -> float:
        """Paper eq. 18: Σ r_j ≤ C with the candidate; returns Σ r_j."""
        reserved = math.fsum(self._rates.values())  # reserved_rate, inline
        projected = reserved + session.rate
        if projected > self.capacity + RATE_EPSILON:
            raise AdmissionError(
                f"rate reservation would exceed capacity: "
                f"{projected:.0f} > {self.capacity:.0f} bit/s",
                rule="eq-18")
        return reserved

    # ------------------------------------------------------------------
    # Procedure-specific
    # ------------------------------------------------------------------
    @abstractmethod
    def admit(self, session: Session, **options) -> DelayPolicy:
        """Run every test; mint the delay policy; record the session.

        Raises :class:`~repro.errors.AdmissionError` if a test fails (any
        other error if an option is invalid), having recorded nothing.
        """

    def release(self, session_id: str) -> None:
        """Tear down a session's reservation (connection teardown)."""
        self._rates.pop(session_id, None)
