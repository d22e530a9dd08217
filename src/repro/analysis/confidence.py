"""Batch-means confidence intervals for steady-state simulation output.

Delay samples from one simulation run are autocorrelated, so the naive
i.i.d. standard error understates uncertainty. The classic remedy is
the method of batch means: partition the (post-warmup) sample sequence
into ``k`` contiguous batches, average each, and treat the batch means
as approximately independent normal draws — valid when batches are much
longer than the autocorrelation time.

Used by the validation experiment to decide whether the simulated
M/D/1 mean delay is statistically consistent with the
Pollaczek-Khinchine value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["ConfidenceInterval", "batch_means"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval from batch means."""

    mean: float
    half_width: float
    level: float
    batches: int
    batch_size: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def relative_half_width(self) -> float:
        """Half width as a fraction of the mean (precision measure)."""
        return self.half_width / abs(self.mean) if self.mean else math.inf


def batch_means(samples: Sequence[float], *, batches: int = 20,
                level: float = 0.95) -> ConfidenceInterval:
    """Batch-means confidence interval for the steady-state mean.

    Leftover samples that do not fill the last batch are discarded
    (they would bias the final batch mean toward recent transients).
    """
    if not 0 < level < 1:
        raise ConfigurationError(
            f"confidence level must be in (0,1), got {level}")
    if batches < 2:
        raise ConfigurationError(
            f"need at least 2 batches, got {batches}")
    batch_size = len(samples) // batches
    if batch_size < 1:
        raise ConfigurationError(
            f"{len(samples)} samples cannot fill {batches} batches")
    means = []
    for index in range(batches):
        start = index * batch_size
        chunk = samples[start:start + batch_size]
        means.append(sum(chunk) / batch_size)
    grand_mean = sum(means) / batches
    variance = (sum((m - grand_mean) ** 2 for m in means)
                / (batches - 1))
    # Here, not at module level: scipy.stats costs about a second to
    # import and drags numpy in, and the CLI imports this module.
    from scipy import stats
    t_value = stats.t.ppf(0.5 + level / 2.0, df=batches - 1)
    half_width = t_value * math.sqrt(variance / batches)
    return ConfidenceInterval(mean=grand_mean, half_width=half_width,
                              level=level, batches=batches,
                              batch_size=batch_size)
