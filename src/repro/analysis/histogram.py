"""Empirical distribution estimators (CCDF-centric, as in the paper's
delay-distribution figures)."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import ConfigurationError
from repro.optdeps import np

__all__ = [
    "empirical_cdf",
    "empirical_ccdf",
    "ccdf_at",
    "histogram",
    "tail_percentile",
]


def empirical_cdf(samples: Sequence[float]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted sample values and P(X ≤ x) at each of them."""
    if len(samples) == 0:
        raise ConfigurationError("cannot build a CDF from no samples")
    xs = np.sort(np.asarray(samples, dtype=float))
    probs = np.arange(1, len(xs) + 1, dtype=float) / len(xs)
    return xs, probs


def empirical_ccdf(samples: Sequence[float]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted sample values and P(X > x) at each of them."""
    xs, cdf = empirical_cdf(samples)
    return xs, 1.0 - cdf


def ccdf_at(samples: Sequence[float],
            points: Sequence[float]) -> np.ndarray:
    """P(X > point) for each requested point (vectorized)."""
    if len(samples) == 0:
        raise ConfigurationError("cannot evaluate a CCDF with no samples")
    xs = np.sort(np.asarray(samples, dtype=float))
    ranks = np.searchsorted(xs, np.asarray(points, dtype=float),
                            side="right")
    return 1.0 - ranks / len(xs)


def histogram(samples: Sequence[float], bin_width: float,
              origin: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Counts per fixed-width bin, normalized to a probability mass.

    Returns (bin left edges, mass per bin). Used for the Figure-8-style
    delay histograms.
    """
    if bin_width <= 0:
        raise ConfigurationError(
            f"bin width must be positive, got {bin_width}")
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ConfigurationError("cannot histogram no samples")
    indices = np.floor((data - origin) / bin_width).astype(int)
    low, high = indices.min(), indices.max()
    counts = np.bincount(indices - low, minlength=high - low + 1)
    edges = origin + bin_width * np.arange(low, high + 1)
    return edges, counts / data.size


def tail_percentile(samples: Sequence[float],
                    tail_probability: float) -> float:
    """The delay exceeded with probability ``tail_probability``.

    ``tail_percentile(d, 1e-4)`` answers the paper's "about 0.01 % of
    all packets are delayed by more than ..." reading of Figure 9.
    """
    if not 0 < tail_probability < 1:
        raise ConfigurationError(
            f"tail probability must be in (0,1), got {tail_probability}")
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ConfigurationError("cannot take a percentile of no samples")
    return float(np.quantile(xs, 1.0 - tail_probability))
