"""End-to-end delay-jitter bounds (paper eq. 17 and its companion).

Jitter is defined as the maximum difference between the delays of any
two packets of the session (the Jitter-EDD definition). With

    δ_max^n = L_MAX/C_n + d_max^n − L_min,s/C_n
    Δ^{1,N} = Σ_{n=1}^{N} δ_max^n

the bounds are::

    J < D_ref_max + Δ^{1,N} − d_max^N + α^N      (no jitter control)
    J < D_ref_max + δ_max^N − d_max^N + α^N      (with jitter control)

so the jitter of an uncontrolled session grows with connection length
while a controlled session pays only the *last* hop's δ — the property
Figure 8 demonstrates (66.25 ms vs 13.25 ms for the paper's 5-hop
32 kbit/s sessions).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError

__all__ = ["delta_max", "jitter_bound"]


def delta_max(l_max_network: float, capacity: float, d_max: float,
              l_min_session: float) -> float:
    """Per-node jitter contribution δ_max^n."""
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    return l_max_network / capacity + d_max - l_min_session / capacity


def route_deltas(l_max_network: float, capacities: Sequence[float],
                 d_maxes: Sequence[float],
                 l_min_session: float) -> List[float]:
    """δ_max^n at every node of a route."""
    if len(capacities) != len(d_maxes) or not capacities:
        raise ConfigurationError(
            "capacities and d_maxes must align and be non-empty")
    return [delta_max(l_max_network, c, d, l_min_session)
            for c, d in zip(capacities, d_maxes)]


def jitter_bound(d_ref_max: float, l_max_network: float,
                 capacities: Sequence[float], d_maxes: Sequence[float],
                 l_min_session: float, alpha: float, *,
                 jitter_control: bool) -> float:
    """Eq. 17 (and the uncontrolled companion) assembled end to end."""
    deltas = route_deltas(l_max_network, capacities, d_maxes, l_min_session)
    return jitter_from_deltas(d_ref_max, deltas, d_maxes[-1], alpha,
                              jitter_control=jitter_control)


def jitter_from_deltas(d_ref_max: float, deltas: Sequence[float],
                       last_d_max: float, alpha: float, *,
                       jitter_control: bool) -> float:
    """Eq. 17 from the route's δ_max^n and d_max^N."""
    accumulated = deltas[-1] if jitter_control else sum(deltas)
    return d_ref_max + accumulated - last_d_max + alpha
