"""Measurement primitives used by the analysis layer.

Two small, composable recorders:

* :class:`Tally` — streaming min/max/mean/variance of observations
  (Welford's algorithm, numerically stable for long runs).
* :class:`TimeSeries` — raw ``(time, value)`` samples for distribution
  plots.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

__all__ = ["Tally", "TimeSeries"]


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


class TimeSeries:
    """Raw ``(time, value)`` samples, every one kept."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def items(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))
