"""Admission control procedure 2 (paper rules 2.2-2.3a).

Identical class structure to procedure 1 with two changes:

* the base-delay test (2.2) also covers class P, so ``σ_P`` must be
  budgeted large enough for the *whole* link load — the price of the
  procedure's benefit;
* the service parameter uses the *previous* class's bandwidth cap and
  the *own* class's base delay:

  * (2.3)   ``d_{i,s} = L_i·R_{j-1}/(r·C) + σ_j + ε``   (``R_0 = 0``)
  * (2.3a)  ``d_{i,s} = L_max·R_{j-1}/(r·C) + σ_j + ε``

so class-1 sessions get a ``d`` completely independent of ``L/r`` —
the paper's lever for giving low-rate sessions low delay (its worked
example: a 10 kbit/s session gets 0.2 ms here versus 4 ms under
procedure 1).
"""

from __future__ import annotations

from repro.admission.procedure1 import Procedure1

__all__ = ["Procedure2"]


class Procedure2(Procedure1):
    """Shifted-index variant: rules (1.1), (2.2), (2.3)/(2.3a)."""

    _SIGMA_SHIFT = 0   # σ_j; rule (2.2) includes class P
    _R_SHIFT = -1      # R_{j-1}, with R_0 = 0
