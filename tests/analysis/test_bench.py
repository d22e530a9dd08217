"""The three host-side helpers ``repro.analysis.bench`` still exports."""

from repro.analysis import bench


class TestStopwatch:
    def test_elapsed_is_monotonic(self):
        watch = bench.Stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0.0 <= first <= second


class TestHostFacts:
    def test_git_rev_is_nonempty(self):
        assert bench.git_rev()

    def test_peak_rss_is_a_positive_byte_count(self):
        rss = bench.peak_rss_bytes()
        # None only where the resource module is missing (Windows).
        assert rss is None or rss > 1_000_000
