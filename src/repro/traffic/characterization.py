"""The (x_min, x_ave, I, P) traffic characterization of the EDD family.

Paper §4: "the input traffic in Delay-EDD and Jitter-EDD (and RCSP)
must be constrained to a scheme more restrictive than a token-bucket
filter. The traffic characterization specifies a minimum packet
interarrival time x_min, a minimum average packet interarrival time
x_ave over an averaging interval of time I, and a maximum packet
length P."

This module implements that envelope: the declaration, a conformance
checker over arrival traces, and the two admission styles the paper
cites — peak-rate reservation (from x_min, [26]) and the refined
average-rate form (using both x_min and x_ave, [27]).

It exists so the EDD/RCSP baselines can be driven with honestly
characterized traffic, and so the contrast with Leave-in-Time's "no
additional traffic characterization is required" can be demonstrated
rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["EddCharacterization", "conforms_to_edd",
           "peak_rate_reservation", "average_rate_reservation"]


@dataclass(frozen=True)
class EddCharacterization:
    """The (x_min, x_ave, I, P) declaration.

    Attributes
    ----------
    x_min:
        Minimum spacing between consecutive packets (seconds).
    x_ave:
        Minimum *average* spacing over any window of length
        ``interval`` (seconds); ``x_ave ≥ x_min``.
    interval:
        The averaging interval ``I`` (seconds).
    p_max:
        Maximum packet length ``P`` (bits).
    """

    x_min: float
    x_ave: float
    interval: float
    p_max: float

    def __post_init__(self) -> None:
        if self.x_min <= 0:
            raise ConfigurationError(
                f"x_min must be positive, got {self.x_min}")
        if self.x_ave < self.x_min:
            raise ConfigurationError(
                f"x_ave ({self.x_ave}) must be >= x_min ({self.x_min})")
        if self.interval < self.x_ave:
            raise ConfigurationError(
                f"averaging interval ({self.interval}) shorter than "
                f"x_ave ({self.x_ave}) constrains nothing")
        if self.p_max <= 0:
            raise ConfigurationError(
                f"p_max must be positive, got {self.p_max}")

    @property
    def peak_rate(self) -> float:
        """Worst-case bit rate: P / x_min."""
        return self.p_max / self.x_min

    @property
    def average_rate(self) -> float:
        """Sustained bit rate: P / x_ave."""
        return self.p_max / self.x_ave

    @property
    def packets_per_window(self) -> int:
        """⌊I / x_ave⌋: the packet budget of one averaging window."""
        return int(self.interval / self.x_ave + 1e-9)


def conforms_to_edd(times: Sequence[float], lengths: Sequence[float],
                    spec: EddCharacterization) -> bool:
    """Does a trace satisfy the (x_min, x_ave, I, P) envelope?

    Checks, for every packet: length ≤ P, spacing to the previous
    packet ≥ x_min, and at most ⌊I/x_ave⌋ packets in any sliding
    window of length I (the standard reading of the x_ave constraint).
    """
    if len(times) != len(lengths):
        raise ConfigurationError(
            f"{len(times)} times but {len(lengths)} lengths")
    budget = spec.packets_per_window
    window_start = 0
    for index, (t, length) in enumerate(zip(times, lengths)):
        if length > spec.p_max + 1e-9:
            return False
        if index > 0 and t - times[index - 1] < spec.x_min - 1e-9:
            return False
        while times[window_start] <= t - spec.interval + 1e-12:
            window_start += 1
        if index - window_start + 1 > budget:
            return False
    return True


def peak_rate_reservation(specs: Sequence[EddCharacterization],
                          capacity: float) -> bool:
    """[26]-style admission: reserve every session at its peak rate."""
    if capacity <= 0:
        raise ConfigurationError(
            f"capacity must be positive, got {capacity}")
    return sum(spec.peak_rate for spec in specs) <= capacity + 1e-9


def average_rate_reservation(specs: Sequence[EddCharacterization],
                             capacity: float, *,
                             horizon: float) -> bool:
    """[27]-style refinement: bound work over a busy period.

    Over any interval of length ``horizon``, session *j* contributes at
    most ``min(⌈horizon/x_min⌉, ⌈horizon/I⌉·⌊I/x_ave⌋ + ⌊I/x_ave⌋)``
    packets (peak-limited short term, average-limited long term). The
    test requires the total worst-case work to fit in the interval —
    admitting more sessions than peak-rate reservation would whenever
    x_ave >> x_min.
    """
    import math
    if horizon <= 0:
        raise ConfigurationError(
            f"horizon must be positive, got {horizon}")
    total_bits = 0.0
    for spec in specs:
        by_peak = math.ceil(horizon / spec.x_min)
        windows = math.ceil(horizon / spec.interval)
        by_average = (windows + 1) * spec.packets_per_window
        total_bits += min(by_peak, by_average) * spec.p_max
    return total_bits / capacity <= horizon + 1e-9
