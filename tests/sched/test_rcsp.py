"""Unit tests for Rate-Controlled Static-Priority queueing."""

import pytest

from repro.errors import ConfigurationError
from repro.net.session import Session
from repro.sched.rcsp import RCSP, rcsp_admissible
from tests.conftest import add_trace_session, make_network


def scheduler_factory(levels=(0.5, 2.0), assignment=None, x_min=None):
    return lambda: RCSP(levels, assignment=assignment, x_min=x_min)


class TestRateRegulator:
    def test_spacing_enforced(self):
        # x_min defaults to l_max/rate = 1 s. A burst of three packets
        # becomes eligible at 0, 1, 2.
        network = make_network(scheduler_factory(), capacity=1000.0,
                               trace=True)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0, 0.0, 0.0],
                                       lengths=100.0)
        network.run(10.0)
        starts = [r.time for r in
                  network.tracer.filter("tx_start", node="n1")]
        assert starts == pytest.approx([0.0, 1.0, 2.0])

    def test_explicit_x_min(self):
        network = make_network(
            scheduler_factory(x_min={"s": 0.25}), capacity=1000.0,
            trace=True)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0, 0.0], lengths=100.0)
        network.run(10.0)
        starts = [r.time for r in
                  network.tracer.filter("tx_start", node="n1")]
        assert starts == pytest.approx([0.0, 0.25])

    def test_conforming_traffic_not_held(self):
        network = make_network(scheduler_factory(), capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0, 1.5, 3.0],
                                       lengths=100.0)
        network.run(10.0)
        assert sink.samples == pytest.approx([0.1, 0.1, 0.1])


class TestStaticPriority:
    def test_higher_priority_served_first(self):
        network = make_network(
            scheduler_factory(assignment={"hi": 0, "lo": 1}),
            capacity=1000.0, trace=True)
        add_trace_session(network, "filler", rate=1000.0, times=[0.0],
                          lengths=100.0)
        add_trace_session(network, "lo", rate=100.0, times=[0.01],
                          lengths=100.0)
        add_trace_session(network, "hi", rate=100.0, times=[0.02],
                          lengths=100.0)
        network.run(10.0)
        starts = [r.session for r in
                  network.tracer.filter("tx_start", node="n1")]
        assert starts == ["filler", "hi", "lo"]

    def test_unassigned_sessions_get_lowest_priority(self):
        scheduler = RCSP([0.5, 2.0], assignment={"hi": 0})
        session = Session("other", rate=100.0, route=["n1"],
                          l_max=100.0)
        assert scheduler._level_of(session) == 1

    def test_rejects_bad_levels(self):
        with pytest.raises(ConfigurationError):
            RCSP([])
        with pytest.raises(ConfigurationError):
            RCSP([2.0, 0.5])


class TestAdmissibility:
    def test_single_fast_session_admissible(self):
        assert rcsp_admissible([0.5], [(0, 0.2, 100.0)], capacity=1000.0)

    def test_overload_rejected(self):
        # 10 sessions each able to send 100 bits every 20 ms exceed the
        # 0.05 s level bound on a 1 kbit/s link.
        admitted = [(0, 0.02, 100.0)] * 10
        assert not rcsp_admissible([0.05], admitted, capacity=1000.0)

    def test_lower_priority_blocking_counted(self):
        # Level 0 alone fits, but a huge lower-priority packet in
        # service can push it over.
        levels = [0.35, 5.0]
        admitted = [(0, 1.0, 100.0), (1, 1.0, 5000.0)]
        # Level 0 work: ceil((0.35+1)/1) * 0.1 = 0.2; blocking 5.0.
        assert not rcsp_admissible(levels, admitted, capacity=1000.0)

    def test_levels_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            rcsp_admissible([2.0, 1.0], [], capacity=1000.0)
