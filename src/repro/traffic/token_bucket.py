"""Token-bucket filters and traffic-envelope checks.

The paper's analytical delay bound for a session "conforming to a token
bucket filter (r_s, b_{0,s})" is ``D_ref = b_0/r`` (eq. 14). This
module provides:

* :class:`TokenBucket` — the filter itself (continuous refill at rate
  ``r``, capacity ``b0``, initially full, one token per bit).
* :func:`is_conformant` — batch conformance check of an arrival trace.
* :func:`shape_arrivals` — greedy shaping: earliest conformant
  release times for a trace, which a ``TraceSource`` replays (ingress
  shaping, when a bound requires conformance).
* :func:`is_rt_smooth` — Golestani's ``(r, T)``-smoothness (at most
  ``r·T`` bits in any frame), the stricter envelope Stop-and-Go
  requires; a ``(r, T)``-smooth session conforms to a token bucket
  ``(r, r·T)``, which is how the paper compares the two disciplines'
  jitter bounds.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import ConfigurationError

__all__ = ["TokenBucket", "is_conformant", "shape_arrivals", "is_rt_smooth"]


class TokenBucket:
    """A token-bucket filter ``(r, b0)`` with one token per bit.

    The bucket starts full. :meth:`conforms` asks whether a packet can
    be sent *now* without violating the envelope; :meth:`consume`
    spends the tokens (and reports violation instead of silently going
    negative); :meth:`earliest` computes when a packet of a given
    length would next conform.
    """

    #: Default conformance slack in bits. Sub-microbit — physically
    #: meaningless, but absorbs the float drift that accumulates when a
    #: source emits exactly at the bucket rate (spacing L/r), which the
    #: paper's ON-OFF sources do for hundreds of packets per burst.
    DEFAULT_TOLERANCE_BITS = 1e-6

    def __init__(self, rate: float, depth: float, *,
                 tolerance: float = DEFAULT_TOLERANCE_BITS) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if depth <= 0:
            raise ConfigurationError(f"depth must be positive, got {depth}")
        self.rate = float(rate)
        self.depth = float(depth)
        self.tolerance = float(tolerance)
        self._tokens = float(depth)
        self._last_time = 0.0

    def _refill(self, now: float) -> None:
        if now < self._last_time:
            raise ConfigurationError(
                f"time went backwards: {now} < {self._last_time}")
        self._tokens = min(self.depth,
                           self._tokens + self.rate * (now - self._last_time))
        self._last_time = now

    def tokens_at(self, now: float) -> float:
        """Token level at ``now`` without mutating state."""
        if now < self._last_time:
            raise ConfigurationError(
                f"time went backwards: {now} < {self._last_time}")
        return min(self.depth,
                   self._tokens + self.rate * (now - self._last_time))

    def conforms(self, length: float, now: float) -> bool:
        return self.tokens_at(now) >= length - self.tolerance

    def consume(self, length: float, now: float) -> bool:
        """Spend ``length`` tokens at ``now``; returns conformance.

        Non-conformant packets still consume (the bucket goes negative
        is *not* allowed — instead we clamp and report False), matching
        a policing filter that marks/drops violations.
        """
        self._refill(now)
        if self._tokens >= length - self.tolerance:
            self._tokens -= length
            return True
        return False

    def earliest(self, length: float, now: float) -> float:
        """Earliest time ≥ now at which a packet of ``length`` conforms."""
        if length > self.depth:
            raise ConfigurationError(
                f"packet of {length} bits can never conform to a bucket "
                f"of depth {self.depth}")
        available = self.tokens_at(now)
        if available >= length - self.tolerance:
            return now
        return now + (length - available) / self.rate


def is_conformant(times: Sequence[float], lengths: Sequence[float],
                  rate: float, depth: float) -> bool:
    """Does the whole trace conform to a token bucket ``(rate, depth)``?"""
    if len(times) != len(lengths):
        raise ConfigurationError(
            f"{len(times)} times but {len(lengths)} lengths")
    bucket = TokenBucket(rate, depth)
    for t, length in zip(times, lengths):
        if not bucket.consume(length, t):
            return False
    return True


def shape_arrivals(times: Sequence[float], lengths: Sequence[float],
                   rate: float, depth: float) -> List[float]:
    """Greedy shaping: earliest conformant, order-preserving release times."""
    if len(times) != len(lengths):
        raise ConfigurationError(
            f"{len(times)} times but {len(lengths)} lengths")
    bucket = TokenBucket(rate, depth)
    releases: List[float] = []
    previous = 0.0
    for t, length in zip(times, lengths):
        release = max(bucket.earliest(length, max(t, previous)), previous)
        if not bucket.consume(length, release):  # pragma: no cover
            raise ConfigurationError("shaping arithmetic violated the bucket")
        releases.append(release)
        previous = release
    return releases


def is_rt_smooth(times: Sequence[float], lengths: Sequence[float],
                 rate: float, frame: float, *, phase: float = 0.0) -> bool:
    """Golestani's (r, T)-smoothness over frames ``[phase + kT, ...)``.

    True iff the bits arriving within every frame total at most ``r·T``.
    """
    if frame <= 0:
        raise ConfigurationError(f"frame must be positive, got {frame}")
    if len(times) != len(lengths):
        raise ConfigurationError(
            f"{len(times)} times but {len(lengths)} lengths")
    budget = rate * frame
    per_frame: dict[int, float] = {}
    for t, length in zip(times, lengths):
        key = math.floor((t - phase) / frame)
        total = per_frame.get(key, 0.0) + length
        if total > budget + 1e-9:
            return False
        per_frame[key] = total
    return True
