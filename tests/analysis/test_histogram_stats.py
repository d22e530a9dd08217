"""Unit tests for the analysis reducers."""

import pytest

from repro.analysis.histogram import (
    ccdf_at,
    empirical_ccdf,
    empirical_cdf,
    histogram,
    tail_percentile,
)
from repro.analysis.report import format_table
from repro.errors import ConfigurationError


class TestCdf:
    def test_empirical_cdf(self):
        xs, probs = empirical_cdf([3.0, 1.0, 2.0, 4.0])
        assert list(xs) == [1.0, 2.0, 3.0, 4.0]
        assert list(probs) == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_empirical_ccdf_complements(self):
        xs, ccdf = empirical_ccdf([1.0, 2.0])
        assert list(ccdf) == pytest.approx([0.5, 0.0])

    def test_ccdf_at_points(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        values = ccdf_at(samples, [0.0, 1.0, 2.5, 4.0, 5.0])
        assert list(values) == pytest.approx([1.0, 0.75, 0.5, 0.0, 0.0])

    def test_ccdf_at_handles_duplicates(self):
        values = ccdf_at([1.0, 1.0, 1.0, 2.0], [1.0])
        assert values[0] == pytest.approx(0.25)

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])
        with pytest.raises(ConfigurationError):
            ccdf_at([], [1.0])


class TestHistogram:
    def test_mass_sums_to_one(self):
        edges, mass = histogram([0.1, 0.2, 0.9, 1.5], bin_width=0.5)
        assert mass.sum() == pytest.approx(1.0)

    def test_bins_aligned_to_origin(self):
        edges, mass = histogram([0.1, 0.6], bin_width=0.5)
        assert list(edges) == pytest.approx([0.0, 0.5])
        assert list(mass) == pytest.approx([0.5, 0.5])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            histogram([1.0], bin_width=0.0)
        with pytest.raises(ConfigurationError):
            histogram([], bin_width=1.0)


class TestTailPercentile:
    def test_simple_tail(self):
        samples = list(range(1, 101))  # 1..100
        assert tail_percentile(samples, 0.05) == pytest.approx(95.05,
                                                               abs=0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            tail_percentile([1.0], 0.0)
        with pytest.raises(ConfigurationError):
            tail_percentile([1.0], 1.0)


class TestReport:
    def test_format_table_aligns_columns(self):
        table = format_table(["name", "v"], [("a", 1.0), ("bb", 22.5)])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # equal widths
        assert "22.500" in table

    def test_title_included(self):
        table = format_table(["x"], [(1,)], title="My Title")
        assert table.splitlines()[0] == "My Title"

    def test_format_row(self):
        # A row's cells: floats to 3 places, right-justified to the
        # column's widest cell, two spaces apart.
        table = format_table(["name", "value"], [("ab", 1.5)])
        assert table.splitlines()[-1] == "  ab  1.500"


class TestNetworkSummary:
    def test_summary_columns(self):
        from repro.analysis.report import network_summary
        from repro.sched.fcfs import FCFS
        from tests.conftest import add_trace_session, make_network

        network = make_network(FCFS, nodes=2, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0, times=[0.0, 0.0],
                          lengths=100.0, route=["n1", "n2"])
        network.run(1.0)
        text = network_summary(network)
        assert "n1" in text and "n2" in text
        assert "util" in text and "drops" in text
        assert "1 sessions" in text
