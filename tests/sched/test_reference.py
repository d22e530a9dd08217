"""Unit tests for the reference server (eq. 1)."""

import pytest

from repro.errors import ConfigurationError
from repro.sched.reference import reference_delays, reference_finish_times


class TestBatchForm:
    def test_isolated_packets(self):
        # Arrivals far apart: W_i = t_i + L/r.
        finishes = reference_finish_times([0.0, 10.0], [100.0, 100.0],
                                          rate=100.0)
        assert finishes == pytest.approx([1.0, 11.0])

    def test_back_to_back_packets_queue(self):
        finishes = reference_finish_times([0.0, 0.0, 0.0], [100.0] * 3,
                                          rate=100.0)
        assert finishes == pytest.approx([1.0, 2.0, 3.0])

    def test_partial_overlap(self):
        # Second packet arrives while first still in service.
        finishes = reference_finish_times([0.0, 0.5], [100.0, 100.0],
                                          rate=100.0)
        assert finishes == pytest.approx([1.0, 2.0])

    def test_variable_lengths(self):
        finishes = reference_finish_times([0.0, 0.1], [50.0, 200.0],
                                          rate=100.0)
        assert finishes == pytest.approx([0.5, 2.5])

    def test_delays(self):
        delays = reference_delays([0.0, 0.0], [100.0, 100.0], rate=100.0)
        assert delays == pytest.approx([1.0, 2.0])

    def test_empty_sequence(self):
        assert reference_finish_times([], [], 100.0) == []

    def test_rejects_decreasing_arrivals(self):
        with pytest.raises(ConfigurationError):
            reference_finish_times([1.0, 0.5], [1.0, 1.0], 100.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            reference_finish_times([0.0], [1.0, 2.0], 100.0)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            reference_finish_times([0.0], [1.0], 0.0)

    def test_token_bucket_conformant_delay_bound(self):
        # Spacing >= L/r implies every delay is exactly L/r (eq. 14
        # with b0 = L): the reference server never queues.
        delays = reference_delays([i * 1.0 for i in range(50)],
                                  [100.0] * 50, rate=100.0)
        assert all(d == pytest.approx(1.0) for d in delays)
