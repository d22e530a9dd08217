"""Section-4 comparison arithmetic: PGPS and Stop-and-Go.

Two analytic results the paper states:

* **PGPS equality** (§2): for a token-bucket ``(r, b0)`` session under
  Leave-in-Time with admission control procedure 1, one class, and
  ``d_{i,s} = L_{i,s}/r_s``, the end-to-end delay bound (eq. 15) equals
  Parekh & Gallager's PGPS/WFQ bound

      b0/r + (N−1)·L_max,s/r + Σ_n L_MAX/C_n   (+ propagation)

  — :func:`pgps_delay_bound` computes the PGPS side so tests and the
  ``test_pgps_equivalence`` bench can check the equality digit for
  digit.

* **Stop-and-Go worked example** (§4): a session emitting at most 10
  packets of ``0.01·T·C`` bits in any ``T`` conforms to a token bucket
  ``(0.1C, 0.1CT)``; both schemes allocate ``0.1C``. Stop-and-Go's
  delay is ``αHT ± T`` with ``α ∈ [1,2)``, Leave-in-Time's is
  ``T + β``; the *per-link increase* is ``αT`` versus
  ``L_MAX/C + 0.1T``, and the jitter bounds are ``2T`` versus
  ``T + δ_max^N − d_max^N + α^N``. :func:`compare_with_stop_and_go`
  reproduces the whole comparison for arbitrary parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bounds.delay import beta_constant, delay_bound
from repro.bounds.jitter import jitter_bound
from repro.errors import ConfigurationError

__all__ = [
    "pgps_delay_bound",
    "StopAndGoComparison",
    "compare_with_stop_and_go",
]


def pgps_delay_bound(depth: float, rate: float, l_max_session: float,
                     l_max_network: float, capacities: Sequence[float],
                     propagations: Sequence[float] | None = None) -> float:
    """Parekh-Gallager end-to-end bound for a token-bucket session.

    ``b0/r + (N−1)·L_max,s/r + Σ_n L_MAX/C_n`` plus propagation when
    given (eq. 4.36 in Parekh's thesis / eq. 23 in the multiple-node
    paper, with stability ρ ≤ 1 at every hop assumed).
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    hops = len(capacities)
    if hops == 0:
        raise ConfigurationError("need at least one hop")
    total = depth / rate + (hops - 1) * l_max_session / rate
    total += sum(l_max_network / c for c in capacities)
    if propagations is not None:
        if len(propagations) != hops:
            raise ConfigurationError("propagations must align with hops")
        total += sum(propagations)
    return total


@dataclass(frozen=True)
class StopAndGoComparison:
    """Both schemes' bounds for one (r,T)-smooth session."""

    hops: int
    frame: float
    #: Stop-and-Go end-to-end delay bound: worst case αHT + T, α→2.
    sg_delay_worst: float
    #: Stop-and-Go best-case delay: HT − T (α→1, −T slack).
    sg_delay_best: float
    #: Stop-and-Go jitter bound: 2T.
    sg_jitter: float
    #: Stop-and-Go per-link delay increase: αT (reported at α = 2).
    sg_per_link: float
    #: Leave-in-Time delay bound: D_ref + β + α  (D_ref = T here).
    lit_delay: float
    #: Leave-in-Time jitter bound (with jitter control).
    lit_jitter: float
    #: Leave-in-Time per-link delay increase: L_MAX/C + d_max.
    lit_per_link: float


def compare_with_stop_and_go(*, capacity: float, frame: float, hops: int,
                             rate_fraction: float = 0.1,
                             l_max_network: float | None = None
                             ) -> StopAndGoComparison:
    """Reproduce the paper's §4 worked example for arbitrary parameters.

    The session is (r, T)-smooth with ``r = rate_fraction · C``; both
    schemes allocate exactly ``r``. Leave-in-Time runs admission
    control procedure 1 with one class, ``d_{i,s} = L_{i,s}/r_s``, so
    ``α^N = 0`` and ``d_max = L_max,s/r = rate_fraction·T`` when the
    session's packets are ``0.01·T·C`` bits and 10 arrive per frame
    (per the paper's example, ``L_max,s/r = 0.1T``).
    """
    if not 0 < rate_fraction < 1:
        raise ConfigurationError(
            f"rate fraction must be in (0,1), got {rate_fraction}")
    if hops < 1:
        raise ConfigurationError(f"hops must be >= 1, got {hops}")
    rate = rate_fraction * capacity
    # The example's packet: 10 packets of 0.01·T·C bits per frame.
    l_session = 0.01 * frame * capacity
    l_network = l_session if l_max_network is None else l_max_network
    d_max = l_session / rate  # = 0.1 T for the paper's numbers

    # D_ref for a (r,T)-smooth session: token bucket (r, rT) → b0/r = T.
    d_ref = frame

    # No propagation; α^N = 0 in VirtualClock mode.
    capacities, d_maxes = [capacity] * hops, [d_max] * hops
    beta = beta_constant(l_network, capacities, [0.0] * hops, d_maxes)
    # With jitter control, δ^N − d_max^N = (L_MAX − L_min)/C: zero when
    # the session's packets are the network maximum.
    lit_jitter = jitter_bound(d_ref, l_network, capacities, d_maxes,
                              l_session, 0.0, jitter_control=True)

    return StopAndGoComparison(
        hops=hops,
        frame=frame,
        sg_delay_worst=2.0 * hops * frame + frame,
        sg_delay_best=hops * frame - frame,
        sg_jitter=2.0 * frame,
        sg_per_link=2.0 * frame,
        lit_delay=delay_bound(d_ref, beta, 0.0),
        lit_jitter=lit_jitter,
        lit_per_link=l_network / capacity + d_max,
    )
