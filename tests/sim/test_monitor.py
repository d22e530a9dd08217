"""Unit tests for the measurement primitives."""

import math

import pytest

from repro.sim.monitor import Tally, TimeSeries


class TestTally:
    def test_basic_statistics(self):
        tally = Tally()
        for value in (1.0, 2.0, 3.0, 4.0):
            tally.observe(value)
        assert tally.count == 4
        assert tally.mean == pytest.approx(2.5)
        assert tally.minimum == 1.0
        assert tally.maximum == 4.0
        assert tally.spread == 3.0
        assert tally.variance == pytest.approx(5.0 / 3.0)

    def test_welford_matches_two_pass(self):
        values = [math.sin(i) * 10 for i in range(100)]
        tally = Tally()
        for value in values:
            tally.observe(value)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert tally.mean == pytest.approx(mean)
        assert tally.variance == pytest.approx(var)

    def test_empty_tally_defaults(self):
        tally = Tally()
        assert tally.mean == 0.0
        assert tally.variance == 0.0
        assert tally.spread == 0.0

    def test_single_observation(self):
        tally = Tally()
        tally.observe(7.0)
        assert tally.mean == 7.0
        assert tally.variance == 0.0
        assert tally.stddev == 0.0


class TestTimeSeries:
    def test_records_pairs(self):
        series = TimeSeries()
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.items() == [(1.0, 10.0), (2.0, 20.0)]
        assert len(series) == 2

    def test_max_samples_drops_excess(self):
        series = TimeSeries(max_samples=2)
        for i in range(5):
            series.record(float(i), float(i))
        assert len(series) == 2
        assert series.dropped == 3

    def test_bounded_mode_keeps_most_recent(self):
        # Ring-buffer semantics: the docstring promises the most recent
        # N samples, not the first N.
        series = TimeSeries(max_samples=3)
        for i in range(7):
            series.record(float(i), float(i) * 10.0)
        assert series.times == [4.0, 5.0, 6.0]
        assert series.values == [40.0, 50.0, 60.0]
        assert series.items() == [(4.0, 40.0), (5.0, 50.0), (6.0, 60.0)]
        assert series.dropped == 4

    def test_bounded_mode_under_capacity_behaves_like_unbounded(self):
        series = TimeSeries(max_samples=10)
        series.record(1.0, 100.0)
        series.record(2.0, 200.0)
        assert series.values == [100.0, 200.0]
        assert series.dropped == 0
