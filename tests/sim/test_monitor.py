"""Unit tests for the measurement primitives."""

import math

import pytest

from repro.sim.monitor import Tally


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
