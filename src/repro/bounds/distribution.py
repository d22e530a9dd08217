"""The delay-distribution bound (paper eq. 16).

    P(D^{1,N} > d)  ≤  P(D_ref > d − β − α)

i.e. the end-to-end delay CCDF is bounded by the *reference server's*
delay CCDF shifted right by the constant ``β + α``. The reference CCDF
can come from analysis (an M/D/1 formula for Poisson sessions — the
paper's "analytical upper bound") or from feeding the session's own
arrival trace through eq. 1 (the paper's "simulated upper bound"); the
shift is the same either way.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.optdeps import np

__all__ = ["shifted_ccdf", "shifted_ccdf_function"]


def shifted_ccdf(reference_ccdf: Callable[[float], float], shift: float,
                 delays: Sequence[float]) -> np.ndarray:
    """Evaluate the eq.-16 bound at each delay value.

    For ``d < shift`` the bound is the trivial 1.0 (a probability can
    not exceed one, and the reference CCDF at negative arguments is 1).
    """
    bound = shifted_ccdf_function(reference_ccdf, shift)
    return np.array([bound(d) for d in delays], dtype=float)


def shifted_ccdf_function(reference_ccdf: Callable[[float], float],
                          shift: float) -> Callable[[float], float]:
    """The eq.-16 bound as a reusable function of the delay."""

    def bound(d: float) -> float:
        argument = d - shift
        return 1.0 if argument < 0 else min(1.0, reference_ccdf(argument))

    return bound
