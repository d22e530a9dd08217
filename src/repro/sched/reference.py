"""The reference server: a fixed-rate FCFS server serving one session.

This is the yardstick all of Leave-in-Time's guarantees are expressed
against (paper Figure 1 and eq. 1):

    W_i = max(t_i, W_{i-1}) + L_i / r_s,      W_0 = t_1

The delay of packet ``i`` in the reference server is
``D_ref_i = W_i − t_i``, and every end-to-end bound in the paper is a
constant shift of a reference-server quantity. Because the recursion is
closed-form, the reference server needs no event simulation: it is a
fold over the arrival sequence, run once a simulation has recorded its
session's arrivals (the paper's "simulated upper bound" in Figures
9-11 replays the target's arrival trace through
:func:`reference_delays`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError

__all__ = ["reference_finish_times", "reference_delays"]


def reference_finish_times(arrivals: Sequence[float],
                           lengths: Sequence[float],
                           rate: float) -> List[float]:
    """Finishing times ``W_i`` of eq. 1 for a whole arrival sequence.

    ``arrivals`` must be non-decreasing (packets are numbered in
    arrival order); ``lengths`` aligns with it.
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    if len(arrivals) != len(lengths):
        raise ConfigurationError(
            f"got {len(arrivals)} arrivals but {len(lengths)} lengths")
    finish: List[float] = []
    previous = arrivals[0] if arrivals else 0.0
    last_arrival = float("-inf")
    for t, length in zip(arrivals, lengths):
        if t < last_arrival:
            raise ConfigurationError(
                "arrival times must be non-decreasing")
        last_arrival = t
        previous = max(t, previous) + length / rate
        finish.append(previous)
    return finish


def reference_delays(arrivals: Sequence[float], lengths: Sequence[float],
                     rate: float) -> List[float]:
    """Delays ``D_ref_i = W_i − t_i`` for a whole arrival sequence."""
    finishes = reference_finish_times(arrivals, lengths, rate)
    return [w - t for w, t in zip(finishes, arrivals)]

