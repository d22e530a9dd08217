"""Failure injection (scheduler saturation) and variable-length traffic.

Saturation is the failure mode admission control exists to prevent:
assigning ``d`` values the eq.-19 test would reject lets packets miss
their deadlines by more than ``L_MAX/C``. We bypass admission control
deliberately and observe exactly that — then confirm the admission
test would indeed have rejected the configuration.

The variable-length tests exercise the ``d_max − d_i`` holding-time
term (eq. 9) and the α constant, which are invisible with the paper's
fixed-size cells.
"""

import pytest

from repro.admission.procedure3 import subsets_feasible
from repro.bounds.delay import compute_session_bounds
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.policy import constant_policy
from repro.traffic.token_bucket import shape_arrivals
from repro.traffic.trace_source import TraceSource
from tests.conftest import (RecordingSink, UniformLengthPoisson,
                            make_network)


class TestSaturationInjection:
    def saturated_network(self):
        # Two sessions at half the link rate each (eq. 18 passes), but
        # with d = 1 ms where L/r = 200 ms — a configuration eq. 19
        # rejects (L/d = 100/0.001 >> C).
        network = make_network(LeaveInTime, capacity=1000.0)
        for name in ("a", "b"):
            session = Session(name, rate=500.0, route=["n1"],
                              l_max=100.0)
            session.set_policy("n1", constant_policy(0.001, l_max=100.0))
            network.add_session(session)
            TraceSource(network, session, times=[0.0] * 10,
                        lengths=100.0)
        return network

    def test_admission_would_reject_this_configuration(self):
        entries = [(500.0, 100.0, 0.001), (500.0, 100.0, 0.001)]
        assert not subsets_feasible(entries, capacity=1000.0)

    def test_bypassing_admission_saturates_the_scheduler(self):
        network = self.saturated_network()
        network.run(30.0)
        lateness = network.node("n1").scheduler.lateness
        # Deadlines are missed by far more than one packet time: the
        # F̂ < F + L_MAX/C invariant needs admission control to hold.
        assert lateness.maximum > 100.0 / 1000.0

    def test_admissible_d_keeps_the_invariant(self):
        # The same workload with eq.-19-feasible d values (d = 0.2 s,
        # the largest singleton requirement is L/C = 0.1 s each).
        network = make_network(LeaveInTime, capacity=1000.0)
        for name in ("a", "b"):
            session = Session(name, rate=500.0, route=["n1"],
                              l_max=100.0)
            session.set_policy("n1", constant_policy(0.2, l_max=100.0))
            network.add_session(session)
            TraceSource(network, session, times=[0.0] * 10,
                        lengths=100.0)
        assert subsets_feasible(
            [(500.0, 100.0, 0.2), (500.0, 100.0, 0.2)], capacity=1000.0)
        network.run(30.0)
        assert network.node("n1").scheduler.lateness.maximum \
            < 100.0 / 1000.0 + 1e-12


class TestVariableLengthTraffic:
    def test_variable_lengths_flow_with_jitter_control(self):
        # Regulators must cope with per-packet d variations: the
        # d_max − d_i term of eq. 9 is non-zero here.
        network = make_network(LeaveInTime, nodes=3, capacity=10_000.0)
        session = Session("s", rate=1000.0,
                          route=["n1", "n2", "n3"], l_max=424.0,
                          l_min=100.0, jitter_control=True)
        network.add_session(session)
        UniformLengthPoisson(network, session, length=424.0, mean=0.5,
                             length_stream="len", packets=60)
        network.run(600.0)
        assert network.sink("s").received == 60

    def test_variable_length_saturation_invariant(self):
        network = make_network(LeaveInTime, nodes=2, capacity=10_000.0)
        for index in range(3):
            session = Session(f"s{index}", rate=2000.0,
                              route=["n1", "n2"], l_max=424.0,
                              l_min=100.0)
            network.add_session(session)
            UniformLengthPoisson(network, session, length=424.0, mean=0.1,
                                 length_stream=f"l{index}", packets=200)
        network.run(600.0)
        for node in network.nodes.values():
            assert node.scheduler.lateness.maximum < 424.0 / 10_000.0

    def test_alpha_positive_with_constant_d_and_small_packets(self):
        # With constant d and l_min < l_max, α = d − l_min/r > 0
        # enlarges the bound; the measured delay still respects it.
        rate, l_min, l_max = 1000.0, 100.0, 400.0
        network = make_network(LeaveInTime, nodes=2, capacity=10_000.0)
        session = Session("s", rate=rate, route=["n1", "n2"],
                          l_max=l_max, l_min=l_min,
                          token_bucket=(rate, 2 * l_max))
        d = 0.5
        for node_name in ("n1", "n2"):
            session.set_policy(node_name, constant_policy(
                d, l_max=l_max, l_min=l_min))
        network.add_session(session)
        raw_times = [0.05 * i for i in range(40)]
        lengths = [l_min if i % 2 else l_max for i in range(40)]
        times = shape_arrivals(raw_times, lengths, rate, 2 * l_max)
        TraceSource(network, session, times=times, lengths=lengths)
        network.run(600.0)
        bounds = compute_session_bounds(network, session)
        assert bounds.alpha == pytest.approx(d - l_min / rate)
        sink = network.sink("s")
        assert sink.received == 40
        assert sink.max_delay <= bounds.max_delay

    def test_length_sampler_respects_l_max(self):
        network = make_network(LeaveInTime, capacity=10_000.0)
        session = Session("s", rate=1000.0, route=["n1"], l_max=424.0,
                          l_min=100.0)
        network.add_session(session, sink=RecordingSink("s"))
        UniformLengthPoisson(network, session, length=424.0, mean=0.05,
                             length_stream="len", packets=100)
        network.run(600.0)
        sink = network.sink("s")
        lengths = [p.length for p in sink.packets]
        assert len(lengths) == 100
        assert all(100.0 <= l <= 424.0 for l in lengths)
        assert len(set(lengths)) > 10  # actually varying
