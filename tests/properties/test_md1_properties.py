"""Property-based tests pitting the Crommelin formula against Lindley.

The M/D/1 analysis underpins the Figures 9-11 analytical bounds; these
properties check it against an independent computation (the Lindley
waiting-time recursion) across randomized utilizations and service
times, plus structural facts that must hold for any stable queue.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.confidence import batch_means
from repro.bounds.md1 import (
    md1_delay_ccdf,
    md1_mean_wait,
    md1_wait_cdf,
)


#: Two-sided confidence of each quantile's tolerance.  A run makes 50
#: comparisons (10 draws x 5 quantiles), so a false alarm is expected
#: once in 20 000 runs.  A sweep of 2 000 drawn (rho, service, seed)
#: — 10 000 comparisons — was clean, its largest error 0.77 of its
#: tolerance: batch means of a rho = 0.85 queue are not quite normal,
#: so a level that looks extravagant is not.  (The fixed 0.03 this
#: replaces failed 12 of the same 10 000, all above rho = 0.8 where the
#: tolerance is now 0.02-0.19, and was loose below rho = 0.4, where it
#: is now 0.001-0.04.)
CONFIDENCE = 1.0 - 1e-6
#: Added to every tolerance: the start-up transient of a queue that
#: begins empty, and the 1/30 000 grain of an empirical CDF (at a
#: quantile every wait falls under, the batch-means half-width is zero).
RESOLUTION = 1e-3


def lindley_against_formula(rho, service, seed, customers=30_000):
    """``(quantile, |formula - empirical|, tolerance)`` per quantile.

    Lindley waits are autocorrelated — the more so the higher ``rho``
    — so the tolerance is the batch-means half-width of the indicator
    series ``1{W <= t}`` in arrival order, not a constant.
    """
    lam = rho / service
    rng = random.Random(seed)
    wait = 0.0
    waits = []
    for _ in range(customers):
        gap = -math.log(rng.random()) / lam
        wait = max(0.0, wait + service - gap)
        waits.append(wait)
    rows = []
    for quantile in (0.25, 0.5, 1.0, 2.0, 4.0):
        t = quantile * service
        empirical = batch_means([w <= t for w in waits], batches=20,
                                level=CONFIDENCE)
        formula = md1_wait_cdf(t, lam, service)
        rows.append((quantile, abs(formula - empirical.mean),
                     empirical.half_width + RESOLUTION))
    return rows


class TestAgainstLindley:
    @settings(max_examples=10, deadline=None)
    @given(rho=st.floats(min_value=0.1, max_value=0.85),
           service=st.floats(min_value=1e-4, max_value=1e-2),
           seed=st.integers(min_value=0, max_value=10_000))
    # Failed the fixed 0.03: 0.0305 off at t = 4 * service.
    @example(rho=0.8125, service=0.0078125, seed=96)
    def test_cdf_within_sampling_error(self, rho, service, seed):
        for quantile, error, tolerance in lindley_against_formula(
                rho, service, seed):
            assert error <= tolerance, (quantile, error, tolerance)


class TestStructure:
    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(min_value=0.05, max_value=0.95),
           service=st.floats(min_value=1e-5, max_value=1.0))
    def test_atom_at_zero_is_one_minus_rho(self, rho, service):
        lam = rho / service
        assert md1_wait_cdf(0.0, lam, service) == pytest.approx(
            1.0 - rho, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(rho=st.floats(min_value=0.05, max_value=0.9),
           service=st.floats(min_value=1e-4, max_value=1e-1))
    def test_mean_wait_increases_with_utilization(self, rho, service):
        lam = rho / service
        higher = min(rho + 0.05, 0.95) / service
        assert md1_mean_wait(higher, service) > md1_mean_wait(
            lam, service)

    @settings(max_examples=20, deadline=None)
    @given(rho=st.floats(min_value=0.05, max_value=0.9),
           service=st.floats(min_value=1e-4, max_value=1e-1),
           k=st.integers(min_value=1, max_value=20))
    def test_delay_ccdf_decreasing_in_t(self, rho, service, k):
        lam = rho / service
        earlier = md1_delay_ccdf(k * service / 2, lam, service)
        later = md1_delay_ccdf((k + 1) * service / 2, lam, service)
        assert later <= earlier + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(service=st.floats(min_value=1e-4, max_value=1e-1))
    def test_delay_certain_below_one_service_time(self, service):
        lam = 0.5 / service
        assert md1_delay_ccdf(0.5 * service, lam, service) == \
            pytest.approx(1.0)
