"""Unit tests for Delay-EDD and Jitter-EDD."""

from math import inf, nan

import pytest

from repro.errors import ConfigurationError
from repro.sched.edd import DelayEDD, JitterEDD, edd_schedulable
from tests.conftest import add_trace_session, make_network


class TestSchedulabilityTest:
    def test_single_session_needs_one_packet_time(self):
        assert edd_schedulable([(0.1, 100.0)], capacity=1000.0)
        assert not edd_schedulable([(0.05, 100.0)], capacity=1000.0)

    def test_prefix_sums_checked_in_bound_order(self):
        offered = [(0.1, 100.0), (0.2, 100.0), (0.3, 100.0)]
        assert edd_schedulable(offered, capacity=1000.0)
        # Tightening the largest bound below the total load fails.
        offered = [(0.1, 100.0), (0.2, 100.0), (0.25, 100.0)]
        assert not edd_schedulable(offered, capacity=1000.0)

    def test_order_of_input_is_irrelevant(self):
        offered = [(0.3, 100.0), (0.1, 100.0), (0.2, 100.0)]
        assert edd_schedulable(offered, capacity=1000.0)

    def test_empty_offered_is_schedulable(self):
        assert edd_schedulable([], capacity=1000.0)


class TestDelayEDD:
    @pytest.mark.parametrize("bound", [nan, inf, -1.0])
    @pytest.mark.parametrize("discipline", [DelayEDD, JitterEDD])
    def test_rejects_a_bound_that_is_not_finite_and_non_negative(
            self, discipline, bound):
        # A NaN deadline breaks heap order without a word; an infinite
        # one reads lateness -inf.
        with pytest.raises(ConfigurationError, match="'late'"):
            discipline(local_delays={"ok": 0.5, "late": bound})

    def test_accepts_a_zero_bound(self):
        assert DelayEDD(local_delays={"s": 0.0}).local_delays == {"s": 0.0}

    def test_deadline_is_arrival_plus_local_bound(self):
        network = make_network(
            lambda: DelayEDD(local_delays={"s": 0.5}), capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0, 0.2], lengths=100.0)
        network.run(10.0)
        assert [p.deadline for p in sink.packets] == pytest.approx(
            [0.5, 0.7])

    def test_default_local_bound_is_service_time(self):
        network = make_network(DelayEDD, capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0], lengths=100.0)
        network.run(10.0)
        assert sink.packets[0].deadline == pytest.approx(1.0)

    def test_tighter_bound_served_first(self):
        network = make_network(
            lambda: DelayEDD(local_delays={"tight": 0.2, "loose": 2.0}),
            capacity=1000.0, trace=True)
        add_trace_session(network, "filler", rate=1000.0, times=[0.0],
                          lengths=100.0)
        add_trace_session(network, "loose", rate=100.0, times=[0.01],
                          lengths=100.0)
        add_trace_session(network, "tight", rate=100.0, times=[0.02],
                          lengths=100.0)
        network.run(10.0)
        starts = [r.session for r in
                  network.tracer.filter("tx_start", node="n1")]
        assert starts == ["filler", "tight", "loose"]

    def test_work_conserving(self):
        network = make_network(
            lambda: DelayEDD(local_delays={"s": 5.0}), capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0], lengths=100.0)
        network.run(10.0)
        assert sink.max_delay == pytest.approx(0.1)


class TestJitterEDD:
    def test_regulator_reconstructs_spacing(self):
        # Two-node tandem, d_local = 0.5 s per node. Packet 1 leaves n1
        # 0.4 s ahead of its deadline, so n2 holds it 0.4 s.
        network = make_network(
            lambda: JitterEDD(local_delays={"s": 0.5}),
            nodes=2, capacity=1000.0, trace=True)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0], lengths=100.0,
            route=["n1", "n2"], jitter_control=True)
        network.run(10.0)
        # n1: deadline 0.5, finishes 0.1 -> correction 0.4. At n2 the
        # packet arrives at 0.1, eligible 0.5, deadline 1.0, done 0.6.
        assert sink.max_delay == pytest.approx(0.6)

    @staticmethod
    def _contended_tandem(factory):
        # Filler traffic shares only n1, so the target's three packets
        # (spaced 0.5 s at the source) pick up *different* queueing
        # delays at n1 — upstream jitter for n2 to see or cancel.
        network = make_network(factory, nodes=2, capacity=1000.0)
        add_trace_session(network, "filler", rate=500.0,
                          times=[0.0] * 5, lengths=100.0,
                          route=["n1"])
        _, sink, _ = add_trace_session(
            network, "target", rate=100.0, times=[0.0, 0.5, 1.0],
            lengths=100.0, route=["n1", "n2"], jitter_control=True)
        network.run(20.0)
        return sink.samples

    def test_end_to_end_jitter_cancelled_by_regulators(self):
        delays = self._contended_tandem(
            lambda: JitterEDD(local_delays={"target": 1.0,
                                            "filler": 0.3}))
        # The n2 regulators hold each packet by its n1 earliness, so
        # all three see identical end-to-end delay.
        assert max(delays) - min(delays) == pytest.approx(0.0, abs=1e-9)

    def test_delay_edd_same_scenario_has_jitter(self):
        delays = self._contended_tandem(
            lambda: DelayEDD(local_delays={"target": 1.0,
                                           "filler": 0.3}))
        assert max(delays) - min(delays) > 0.3
