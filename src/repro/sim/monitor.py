"""The measurement primitive used by the analysis layer.

:class:`Tally` — streaming min/max/mean/variance of observations
(Welford's algorithm, numerically stable for long runs).  Raw samples,
where a sink or node keeps them, are plain lists of values.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["Tally"]


class Tally:
    """Streaming statistics over a sequence of observations."""

    def __init__(self, name: str = "tally") -> None:
        self.name = name
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._mean = 0.0
        self._m2 = 0.0

    def observe(self, value: float) -> None:
        count = self.count = self.count + 1
        if count == 1:
            self.minimum = self.maximum = value
        elif value < self.minimum:
            self.minimum = value
        elif value > self.maximum:
            self.maximum = value
        mean = self._mean
        delta = value - mean
        mean = self._mean = mean + delta / count
        self._m2 += delta * (value - mean)

    @property
    def mean(self) -> float:
        """Sample mean; 0.0 when no observations were made."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 for fewer than two points."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def spread(self) -> float:
        """max - min; the paper's delay-jitter measure over a run."""
        if self.count == 0:
            return 0.0
        assert self.minimum is not None and self.maximum is not None
        return self.maximum - self.minimum
