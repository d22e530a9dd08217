"""Admission control procedure 1 (paper rules 1.1-1.3a).

Classes are numbered 1..P with nested bandwidth caps
``R_1 ≤ ... ≤ R_P = C`` and base delays ``σ_1 ≤ ... ≤ σ_P``. Admitting
session ``s_a`` into class ``j`` requires:

* (1.1)  ``R_m ≥ Σ_{classes ≤ m} r``            for m = j..P
* (1.2)  ``σ_m ≥ Σ_{classes ≤ m} L_max/C``      for m = j..P−1

and assigns the service parameter:

* (1.3)   ``d_{i,s} = L_i·R_j/(r·C) + σ_{j-1} + ε``   (per-packet), or
* (1.3a)  ``d_{i,s} = L_max·R_j/(r·C) + σ_{j-1} + ε`` (constant),

with ``σ_0 = 0``. Note σ_P is never used — its value is irrelevant
here, which is why procedure 1 can always exploit the full link
bandwidth (the paper's contrast with procedure 2).

With one class and ε = 0, rule (1.3) gives ``d = L_i/r`` — VirtualClock
mode, under which the delay bound (eq. 15) equals PGPS's.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Sequence

from repro.admission.base import Procedure, RATE_EPSILON
from repro.admission.classes import DelayClass, validate_classes
from repro.errors import AdmissionError, ConfigurationError
from repro.net.session import Session
from repro.sched.policy import DelayPolicy

__all__ = ["Procedure1"]


class Procedure1(Procedure):
    """Nested delay classes, rules (1.1)-(1.3a)."""

    #: σ and R indices of rule (x.3) relative to the admitted class j
    #: (overridden by Procedure2); rule (x.2) tests m = j..P + σ shift.
    _SIGMA_SHIFT = -1  # σ_{j-1}
    _R_SHIFT = 0       # R_j

    def __init__(self, capacity: float,
                 classes: Sequence[DelayClass]) -> None:
        super().__init__(capacity)
        self.classes: List[DelayClass] = validate_classes(classes, capacity)
        #: Per class (class j at index j − 1), session id -> r and
        #: session id -> L_max / C: the terms rules (1.1) and (1.2) sum.
        self._class_rates: List[Dict[str, float]] = [
            {} for _ in self.classes]
        self._class_loads: List[Dict[str, float]] = [
            {} for _ in self.classes]
        #: The last declaration ``(class, per_packet, ε, r, L_max, L_min)``
        #: and the frozen policy minted for it, handed to the next twin.
        self._declared: Optional[tuple] = None
        self._minted: Optional[DelayPolicy] = None

    # ------------------------------------------------------------------
    # Aggregates (correctly rounded: independent of admission order)
    # ------------------------------------------------------------------
    def rate_in_classes_upto(self, m: int) -> float:
        """Σ r over classes 1..m (the bandwidth tests' left side)."""
        return math.fsum(chain.from_iterable(
            map(dict.values, self._class_rates[:m])))

    def transmission_load_upto(self, m: int) -> float:
        """Σ L_max,s / C over classes 1..m (the σ tests' left side)."""
        return math.fsum(chain.from_iterable(
            map(dict.values, self._class_loads[:m])))

    # ------------------------------------------------------------------
    # Tests
    # ------------------------------------------------------------------
    def _check(self, session: Session, class_number: int) -> None:
        classes, count = self.classes, len(self.classes)
        if not 1 <= class_number <= count:
            raise ConfigurationError(
                f"class {class_number} out of range 1..{count}")
        reserved = self.check_rate_reservation(session)
        # Rule (1.1): bandwidth nesting for m = j..P (eq. 18's Σ r at P).
        for m in range(class_number, count + 1):
            projected = (reserved if m == count
                         else self.rate_in_classes_upto(m)) + session.rate
            if projected > classes[m - 1].limit_rate + RATE_EPSILON:
                raise AdmissionError(
                    f"class {m} bandwidth cap exceeded: {projected:.0f} > "
                    f"{classes[m - 1].limit_rate:.0f} bit/s",
                    rule="1.1")
        # Rule (1.2)/(2.2): base-delay budget.
        for m in range(class_number, count + 1 + self._SIGMA_SHIFT):
            projected = (self.transmission_load_upto(m)
                         + session.l_max / self.capacity)
            if projected > classes[m - 1].base_delay + 1e-12:
                raise AdmissionError(
                    f"class {m} base delay too small: needs "
                    f"{projected * 1e3:.3f} ms, has "
                    f"{classes[m - 1].base_delay * 1e3:.3f} ms",
                    rule="1.2" if self._SIGMA_SHIFT == -1 else "2.2")

    # ------------------------------------------------------------------
    # Policy construction
    # ------------------------------------------------------------------
    def _policy(self, session: Session, class_number: int, *,
                per_packet: bool, epsilon: float) -> DelayPolicy:
        if epsilon < 0:
            raise ConfigurationError(
                f"epsilon must be non-negative, got {epsilon}")
        r_index = class_number + self._R_SHIFT
        r_value = 0.0 if r_index == 0 else self.classes[r_index - 1].limit_rate
        sigma_index = class_number + self._SIGMA_SHIFT
        sigma = (0.0 if sigma_index == 0
                 else self.classes[sigma_index - 1].base_delay)
        scale = r_value / (session.rate * self.capacity)
        if per_packet:
            # Rule (x.3): d = L_i·R/(r·C) + σ + ε.
            return DelayPolicy(slope=scale, offset=sigma + epsilon,
                               l_max=session.l_max, l_min=session.l_min)
        # Rule (x.3a): constant d = L_max·R/(r·C) + σ + ε.
        return DelayPolicy(slope=0.0,
                           offset=session.l_max * scale + sigma + epsilon,
                           l_max=session.l_max, l_min=session.l_min)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def admit(self, session: Session, *, class_number: int = 1,
              per_packet: bool = True,
              epsilon: float = 0.0) -> DelayPolicy:
        """Admit ``session`` into ``class_number`` (1-based).

        ``per_packet=True`` uses rule (1.3); ``False`` uses (1.3a).
        Returns the node's delay policy for the session.
        """
        session_id = session.id
        if session_id in self._rates:
            raise AdmissionError(
                f"session {session_id!r} is already admitted here",
                rule="duplicate")
        self._check(session, class_number)
        declared = (class_number, per_packet, epsilon, session.rate,
                    session.l_max, session.l_min)
        if declared != self._declared:
            self._minted = self._policy(session, class_number,
                                        per_packet=per_packet,
                                        epsilon=epsilon)
            self._declared = declared
        self._rates[session_id] = session.rate
        self._class_rates[class_number - 1][session_id] = session.rate
        self._class_loads[class_number - 1][session_id] = (
            session.l_max / self.capacity)
        return self._minted

    def release(self, session_id: str) -> None:
        self._rates.pop(session_id, None)
        for rates, loads in zip(self._class_rates, self._class_loads):
            rates.pop(session_id, None)
            loads.pop(session_id, None)
