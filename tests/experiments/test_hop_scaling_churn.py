"""Tests for the hop-scaling and call-churn extension experiments."""

import re

import pytest

from repro.experiments import call_churn, hop_scaling


class TestHopScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return hop_scaling.run(duration=4.0, hop_counts=(1, 2, 4),
                               seed=1)

    def test_bounds_hold(self, result):
        assert result.bounds_hold()

    def test_virtual_clock_bound_grows_linearly(self, result):
        rows = sorted(result.rows_for("virtual-clock"),
                      key=lambda r: r.hops)
        # Per-hop increment: L/r + L_MAX/C + prop = 13.25+0.276+1 ms.
        increments = [(b.bound_ms - a.bound_ms) / (b.hops - a.hops)
                      for a, b in zip(rows, rows[1:])]
        for increment in increments:
            assert increment == pytest.approx(14.53, abs=0.01)

    def test_shifting_reduces_per_hop_cost(self, result):
        assert (result.per_hop_growth("shifted")
                < result.per_hop_growth("virtual-clock") / 3)

    def test_measured_delays_identical_across_modes(self, result):
        # Changing d changes the *bound*, not this lightly loaded
        # tandem's actual behaviour (same traffic, same seed).
        vc = {r.hops: r.max_delay_ms
              for r in result.rows_for("virtual-clock")}
        shifted = {r.hops: r.max_delay_ms
                   for r in result.rows_for("shifted")}
        for hops, delay in vc.items():
            assert shifted[hops] == pytest.approx(delay, abs=2.0)

    def test_table_renders(self, result):
        assert "Hop scaling" in result.table()


class TestCallChurn:
    @pytest.fixture(scope="class")
    def result(self):
        return call_churn.run(duration=25.0, seed=3,
                              offered_erlangs=70.0, mean_holding=6.0)

    def test_overload_produces_blocking(self, result):
        assert result.attempts > 50
        assert result.blocked > 0
        assert 0.0 < result.blocking_probability < 1.0

    def test_accepted_calls_keep_their_bounds(self, result):
        assert result.bounds_hold()

    def test_never_more_than_trunk_capacity_admitted(self, result):
        # At most 48 concurrent calls: check via intervals.
        events = []
        for call in result.calls:
            if call.blocked:
                continue
            events.append((call.arrived_at, 1))
            if call.ended_at is not None:
                events.append((call.ended_at, -1))
        concurrent, peak = 0, 0
        for _, delta in sorted(events):
            concurrent += delta
            peak = max(peak, concurrent)
        assert peak <= call_churn.TRUNKS

    def test_underload_blocks_nothing(self):
        light = call_churn.run(duration=20.0, seed=4,
                               offered_erlangs=10.0, mean_holding=5.0)
        assert light.blocked == 0
        assert light.bounds_hold()

    def test_table_renders(self, result):
        text = result.table()
        assert "blocking probability" in text

    def test_table_prints_the_accepted_calls_bound(self, result):
        (bound,) = {call.bound for call in result.calls
                    if not call.blocked}
        row = rf"per-call delay bound \(ms\) +{bound * 1e3:.2f}\n"
        assert re.search(row, result.table())

    def test_no_call_prints_no_bound(self):
        # The first call arrives ~0.17 s in on average; none by 1 us.
        quiet = call_churn.run(duration=1e-6, seed=0)
        assert quiet.attempts == 0
        assert re.search(r"per-call delay bound \(ms\) +n/a\n",
                         quiet.table())
