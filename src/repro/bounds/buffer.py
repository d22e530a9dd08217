"""Per-node buffer-space bounds (paper Section 2).

With Δ and δ as in :mod:`repro.bounds.jitter`::

    Q^n < r_s (D_ref_max + Δ^{1,n-1} + L_MAX/C_n + d_max^n)   (no control)
    Q^n < r_s (D_ref_max + δ_max^{n-1} + L_MAX/C_n + d_max^n) (control)

with ``δ^0 = Δ^{1,0} = 0``. The bound for a controlled session does not
grow along the route: its regulators re-shape the traffic at every hop,
so downstream nodes see (almost) the entry pattern again — the
behaviour Figures 12-13 contrast.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.bounds.jitter import route_deltas

__all__ = ["buffer_bound", "buffer_bounds_along_route"]


def buffer_bound(rate: float, d_ref_max: float, upstream_jitter: float,
                 l_max_network: float, capacity: float,
                 d_max: float) -> float:
    """One node's bound: r·(D_ref + upstream-jitter + L_MAX/C + d_max).

    ``upstream_jitter`` is Δ^{1,n-1} for uncontrolled sessions and
    δ_max^{n-1} for controlled ones (zero at the first node in both
    cases).
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    return rate * (d_ref_max + upstream_jitter
                   + l_max_network / capacity + d_max)


def buffer_bounds_along_route(rate: float, d_ref_max: float,
                              l_max_network: float,
                              capacities: Sequence[float],
                              d_maxes: Sequence[float],
                              l_min_session: float, *,
                              jitter_control: bool) -> List[float]:
    """Bounds at every node of the route, in bits."""
    deltas = route_deltas(l_max_network, capacities, d_maxes, l_min_session)
    return buffers_from_deltas(rate, d_ref_max, l_max_network, capacities,
                               d_maxes, deltas, jitter_control=jitter_control)


def buffers_from_deltas(rate: float, d_ref_max: float,
                        l_max_network: float, capacities: Sequence[float],
                        d_maxes: Sequence[float], deltas: Sequence[float],
                        *, jitter_control: bool) -> List[float]:
    """Every node's bound from the route's δ_max^n."""
    upstreams = ([0.0, *deltas[:-1]] if jitter_control
                 else accumulate(deltas[:-1], initial=0.0))
    return [buffer_bound(rate, d_ref_max, upstream, l_max_network, c, d)
            for upstream, c, d in zip(upstreams, capacities, d_maxes)]
