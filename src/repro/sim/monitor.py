"""Measurement primitives used by the analysis layer.

Two small, composable recorders:

* :class:`Tally` — streaming min/max/mean/variance of observations
  (Welford's algorithm, numerically stable for long runs).
* :class:`TimeSeries` — raw ``(time, value)`` samples for distribution
  plots; optionally bounded to the most recent N samples.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Tuple

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
    """Raw ``(time, value)`` samples, optionally bounded in length.

    Bounded mode is a ring buffer: the series keeps the most *recent*
    ``max_samples`` samples and ``dropped`` counts the oldest ones
    evicted to make room.  (It used to keep the first N and silently
    ignore newcomers, which made bounded sinks useless for steady-state
    distribution plots.)
    """

    __slots__ = ("name", "max_samples", "_times", "_values", "dropped")

    def __init__(self, name: str = "series",
                 max_samples: Optional[int] = None) -> None:
        self.name = name
        self.max_samples = max_samples
        if max_samples is None:
            self._times: Deque[float] | List[float] = []
            self._values: Deque[float] | List[float] = []
        else:
            self._times = deque(maxlen=max_samples)
            self._values = deque(maxlen=max_samples)
        self.dropped = 0

    def record(self, time: float, value: float) -> None:
        times = self._times
        if self.max_samples is not None and len(times) == self.max_samples:
            # The deque evicts the oldest entry on append.
            self.dropped += 1
        times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> List[float]:
        times = self._times
        return times if isinstance(times, list) else list(times)

    @property
    def values(self) -> List[float]:
        values = self._values
        return values if isinstance(values, list) else list(values)

    def items(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))
