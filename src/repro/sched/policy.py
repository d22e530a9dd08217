"""Per-node delay policies: the service parameter ``d_{i,s}``.

The paper's second generalization (eq. 4-5) decouples the deadline
increment ``d_{i,s}`` from the rate term ``L_{i,s}/r_s``. Admission
control assigns each session, at each node, a rule for computing
``d_{i,s}`` from the packet length. Every rule in the paper is affine
in the packet length:

* rule (1.3):  ``d = L_i · R_j / (r_s · C) + σ_{j-1} + ε``
* rule (1.3a): ``d = L_max · R_j / (r_s · C) + σ_{j-1} + ε``  (constant)
* rule (2.3):  ``d = L_i · R_{j-1} / (r_s · C) + σ_j + ε``
* rule (2.3a): ``d = L_max · R_{j-1} / (r_s · C) + σ_j + ε``  (constant)
* procedure 3: ``d = d_s``  (constant)
* VirtualClock: ``d = L_i / r_s``

so a single affine :class:`DelayPolicy` ``d(L) = slope·L + offset``
covers all of them, and the bound helpers can compute
``d_max = max_i d_i`` and ``α = max_i (d_i − L_i/r_s)`` in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.errors import ConfigurationError

__all__ = ["DelayPolicy", "virtual_clock_policy", "constant_policy"]


@dataclass(frozen=True, slots=True)
class DelayPolicy:
    """Affine per-packet delay parameter ``d(L) = slope·L + offset``.

    Attributes
    ----------
    slope:
        Seconds per bit applied to the packet length (finite, ≥ 0).
    offset:
        Constant seconds added to every packet's ``d`` (finite, ≥ 0).
    l_max:
        The session's maximum packet length (finite), fixing ``d_max``.
    l_min:
        The session's minimum packet length, used when maximizing
        ``d_i − L_i/r_s`` over packet lengths (the α term).
    """

    slope: float
    offset: float
    l_max: float
    l_min: float

    def __post_init__(self) -> None:
        # Written so that NaN fails: a NaN ``d`` breaks deadline order.
        if not (0 <= self.slope < inf and 0 <= self.offset < inf):
            raise ConfigurationError(
                f"delay policy must be finite and non-negative, got "
                f"slope={self.slope}, offset={self.offset}")
        if not 0 < self.l_min <= self.l_max < inf:
            raise ConfigurationError(
                f"need 0 < l_min <= l_max < inf, got {self.l_min}, "
                f"{self.l_max}")

    def d_of(self, length: float) -> float:
        """``d_{i,s}`` for a packet of ``length`` bits."""
        return self.slope * length + self.offset

    @property
    def d_max(self) -> float:
        """``d_max,s = max{d_{i,s} : i ≥ 1}`` (paper's per-node constant)."""
        return self.slope * self.l_max + self.offset

    def alpha_term(self, rate: float) -> float:
        """``max_i (d_{i,s} − L_{i,s}/r_s)`` over admissible packet lengths.

        ``d(L) − L/r`` is affine in L with slope ``slope − 1/r``, so the
        maximum sits at ``l_max`` when the slope is non-negative and at
        ``l_min`` otherwise. This is the per-node building block of the
        α^N constant in the delay bound (paper eq. 12).
        """
        coefficient = self.slope - 1.0 / rate
        extremal_length = self.l_max if coefficient >= 0 else self.l_min
        return coefficient * extremal_length + self.offset


def virtual_clock_policy(rate: float, l_max: float,
                         l_min: float | None = None) -> DelayPolicy:
    """The default policy ``d = L/r`` (ACP 1, one class, ε = 0).

    Under this policy Leave-in-Time's deadline recursion collapses to
    VirtualClock's (paper §2, "for P = 1 ... sessions may have
    d_{i,s} = L_{i,s}/r_s").
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    return DelayPolicy(slope=1.0 / rate, offset=0.0, l_max=l_max,
                       l_min=l_max if l_min is None else l_min)


def constant_policy(d: float, l_max: float,
                    l_min: float | None = None) -> DelayPolicy:
    """A constant policy ``d(L) = d`` (admission control procedure 3)."""
    return DelayPolicy(slope=0.0, offset=d, l_max=l_max,
                       l_min=l_max if l_min is None else l_min)
