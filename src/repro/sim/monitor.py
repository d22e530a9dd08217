"""Measurement primitives used by the analysis layer.

Four small, composable recorders:

* :class:`Counter` — monotone event counts.
* :class:`Tally` — streaming min/max/mean/variance of observations
  (Welford's algorithm, numerically stable for long runs).
* :class:`TimeWeighted` — time-average of a piecewise-constant signal,
  e.g. queue length or buffer occupancy in bits.
* :class:`TimeSeries` — raw ``(time, value)`` samples for distribution
  plots; optionally bounded to the most recent N samples.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Tuple

__all__ = ["Counter", "Tally", "TimeWeighted", "TimeSeries"]


class Counter:
    """A named monotone counter."""

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter.increment expects a non-negative amount")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


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


class TimeWeighted:
    """Time-average of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes. The integral is
    accumulated between updates, so reading :attr:`time_average` is
    valid at any time after at least one update.
    """

    def __init__(self, initial: float = 0.0, start_time: float = 0.0,
                 name: str = "time-weighted") -> None:
        self.name = name
        self._value = initial
        self._last_time = start_time
        self._area = 0.0
        self._origin = start_time
        self.maximum = initial

    @property
    def value(self) -> float:
        return self._value

    def update(self, now: float, new_value: float) -> None:
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = new_value
        if new_value > self.maximum:
            self.maximum = new_value

    def time_average(self, now: Optional[float] = None) -> float:
        """Average value from the start time to ``now`` (default: last update)."""
        end = self._last_time if now is None else now
        if end < self._last_time:
            raise ValueError("cannot average into the past")
        total = self._area + self._value * (end - self._last_time)
        span = end - self._origin
        return total / span if span > 0 else self._value


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
