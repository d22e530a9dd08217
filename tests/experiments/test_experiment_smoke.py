"""Short-horizon runs of every figure experiment.

These assert the *claims* each figure makes (bounds hold, jitter
control works, class hierarchy orders delays) rather than absolute
numbers, which depend on run length. Durations are kept short to stay
test-suite friendly; the benchmarks run the fuller versions.
"""

import pytest

from repro.experiments import (
    figure07,
    figure08,
    figure09,
    figure10,
    figure11,
    figure12_13,
    figure14_17,
    firewall,
    section4,
)
from repro.experiments.common import read_target
from repro.units import ms

DURATION = 6.0


@pytest.fixture(scope="module")
def fig8_result():
    return figure08.run(duration=12.0, seed=1)


@pytest.fixture(scope="module")
def fig8(fig8_result):
    """Figure 8's two targets, read: (no control, control)."""
    return tuple(read_target(fig8_result.network, session_id)
                 for session_id in (figure08.SESSION_NO_CONTROL,
                                    figure08.SESSION_CONTROL))


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure07.run(duration=DURATION, seed=1,
                            a_off_values=[ms(6.5), ms(650)])

    def test_bounds_hold(self, result):
        assert result.bounds_hold()

    def test_bound_values_are_paper_constants(self, result):
        for row in result.rows:
            assert row.delay_bound_ms == pytest.approx(72.63, abs=0.01)
            assert row.jitter_bound_ms == pytest.approx(66.25, abs=0.01)

    def test_utilization_tracks_a_off(self, result):
        rows = sorted(result.rows, key=lambda row: row.a_off_ms)
        assert rows[0].utilization > 0.9    # a_OFF = 6.5 ms
        assert rows[-1].utilization < 0.5   # a_OFF = 650 ms

    def test_packets_flow(self, result):
        assert all(row.packets > 0 for row in result.rows)

    def test_table_renders(self, result):
        text = result.table()
        assert "Figure 7" in text
        assert "a_OFF" in text


class TestFigure8:
    def test_jitter_control_reduces_jitter(self, fig8):
        uncontrolled, controlled = fig8
        assert controlled.jitter_ms < uncontrolled.jitter_ms / 2

    def test_jitter_bounds_hold(self, fig8):
        uncontrolled, controlled = fig8
        assert controlled.jitter_ms <= 13.25
        assert uncontrolled.jitter_ms <= 66.25

    def test_delay_bounds_hold(self, fig8):
        for reading in fig8:
            assert reading.max_ms <= 72.64

    def test_control_raises_mean_delay(self, fig8):
        # The paper: regulators push delays toward the bound.
        uncontrolled, controlled = fig8
        assert controlled.mean_ms > uncontrolled.mean_ms

    def test_histogram_available(self, fig8_result):
        edges, mass = fig8_result.delay_histogram(
            figure08.SESSION_CONTROL)
        assert mass.sum() == pytest.approx(1.0)


class TestDistributionFigures:
    @pytest.mark.parametrize("module,utilization", [
        (figure09, 0.70), (figure10, 0.33)])
    def test_poisson_experiments(self, module, utilization):
        result = module.run(duration=6.0, seed=2)
        assert result.utilization == pytest.approx(utilization,
                                                   abs=0.02)
        assert result.packets > 0
        assert result.sound_against(result.analytical_bound, slack=0.02)
        assert result.sound_against(result.simulated_bound, slack=0.02)

    def test_figure11_deterministic_cross(self):
        result = figure11.run(duration=6.0, seed=2)
        assert result.packets > 0
        assert result.sound_against(result.analytical_bound, slack=0.02)

    def test_figure10_bound_looser_than_figure9(self):
        # beta grows with L/r: the low-rate session's shift is larger.
        r9 = figure09.run(duration=2.0, seed=3)
        r10 = figure10.run(duration=2.0, seed=3)
        assert r10.bounds.shift > r9.bounds.shift

    def test_table_renders(self):
        result = figure09.run(duration=2.0, seed=4)
        assert "Figure 9" in result.table()


class TestBufferFigures:
    @pytest.fixture(scope="class")
    def result(self):
        return figure12_13.run(duration=12.0, seed=1)

    def test_bounds_hold(self, result):
        assert result.bounds_hold()

    def test_controlled_session_flat_bound(self, result):
        jc = figure08.SESSION_CONTROL
        assert result.bound_packets(jc, "n5") == pytest.approx(3.02,
                                                               abs=0.01)

    def test_uncontrolled_bound_grows(self, result):
        njc = figure08.SESSION_NO_CONTROL
        assert result.bound_packets(njc, "n5") > result.bound_packets(
            njc, "n1")

    def test_observed_within_two_packets_of_bound_at_n1(self, result):
        # The paper: observed max within about 2 packets of the bound.
        for session_id in (figure08.SESSION_CONTROL,
                           figure08.SESSION_NO_CONTROL):
            slack = (result.bound_packets(session_id, "n1")
                     - result.max_packets(session_id, "n1"))
            assert 0.0 <= slack <= 2.1


class TestFigures14To17:
    @pytest.fixture(scope="class")
    def result(self):
        return figure14_17.run(duration=DURATION, seed=1,
                               a_off_values=[ms(88)])

    def test_bounds_hold(self, result):
        assert result.bounds_hold()

    def test_class_hierarchy(self, result):
        assert result.class_hierarchy_holds()

    def test_d_values_match_paper(self, result):
        bounds = {row.figure: row.delay_bound_ms for row in result.rows}
        # Class-1 target bound uses d = 2.77 ms per hop, class-2
        # d = 18.77 ms; the exact end-to-end constants follow.
        assert bounds["fig14-class1-nojc"] < bounds["fig16-class2-nojc"]

    def test_jitter_control_within_class(self, result):
        rows = {row.figure: row for row in result.rows}
        assert (rows["fig15-class1-jc"].jitter_ms
                < rows["fig14-class1-nojc"].jitter_bound_ms)
        assert (rows["fig17-class2-jc"].jitter_ms
                <= rows["fig17-class2-jc"].jitter_bound_ms)


class TestSection4:
    def test_pgps_equality(self):
        result = section4.run()
        assert all(row.equal for row in result.pgps)

    def test_stop_and_go_always_worse_in_delay(self):
        result = section4.run()
        for comparison in result.stop_and_go:
            assert comparison.lit_delay < comparison.sg_delay_worst

    def test_table_renders(self):
        assert "PGPS" in section4.run().table()


class TestFirewall:
    @pytest.fixture(scope="class")
    def result(self):
        return firewall.run(duration=8.0, seed=1, overload=1.2)

    def test_lit_bound_holds_under_overload(self, result):
        assert result.outcomes["leave-in-time"].bound_holds

    def test_fcfs_violates_by_a_wide_margin(self, result):
        fcfs = result.outcomes["fcfs"]
        assert fcfs.max_delay_ms > 5 * fcfs.bound_ms

    def test_table_flags_violation(self, result):
        assert "NO" in result.table()


class TestSpaceParallel:
    def test_all_digests_match(self):
        # What the ledger's sim.parallel probe checks: the tandem it
        # shards comes out of two inline shards as it does serially.
        from repro.experiments.space_parallel import tandem_builder
        from repro.sim.parallel import run_serial, run_sharded

        serial = run_serial(tandem_builder(seed=1), 0.25)
        sharded = run_sharded(tandem_builder(seed=1), 0.25, partitions=2)
        assert sharded.digest == serial.digest
        assert len(sharded.shard_events) == 2
