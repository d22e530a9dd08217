"""Ingress shaping: bursty sources made token-bucket conformant.

Shaping is offline: :func:`shape_arrivals` moves each arrival of a raw
trace to its earliest conformant instant and a :class:`TraceSource`
replays the result.  The payoff test is the last one: a *Poisson*
session — which on its own has no worst-case delay bound at all — gains
the full eq.-12 bound once shaped at entry, and a loaded Leave-in-Time
tandem respects it.
"""

import pytest

from repro.bounds.delay import compute_session_bounds
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.rng import ExponentialSampler
from repro.traffic.poisson import PoissonSource
from repro.traffic.token_bucket import is_conformant, shape_arrivals
from repro.traffic.trace_source import TraceSource
from tests.conftest import add_trace_session, make_network


def shaped_poisson(network, session, *, rate, depth, mean, horizon):
    """Poisson arrivals of 424-bit packets over ``horizon`` seconds,
    shaped to the bucket ``(rate, depth)`` and replayed."""
    gap = ExponentialSampler(network.streams.stream("raw"), mean)
    raw = [gap.sample()]
    while raw[-1] < horizon:
        raw.append(raw[-1] + gap.sample())
    lengths = [424.0] * len(raw)
    return TraceSource(network, session, lengths=lengths, keep_trace=True,
                       times=shape_arrivals(raw, lengths, rate, depth))


class TestShapedEmission:
    def test_output_conforms_to_the_bucket(self):
        network = make_network(LeaveInTime, capacity=1e6)
        session = Session("s", rate=10_000.0, route=["n1"], l_max=424.0)
        network.add_session(session, keep_samples=False)
        source = shaped_poisson(network, session, rate=10_000.0,
                                depth=424.0, mean=0.01, horizon=30.0)
        network.run(30.0)
        assert source.emitted > 100
        assert is_conformant(source.trace_times, source.trace_lengths,
                             10_000.0, 424.0)

    def test_unshaped_poisson_does_not_conform(self):
        network = make_network(LeaveInTime, capacity=1e6, seed=2)
        session = Session("s", rate=10_000.0, route=["n1"], l_max=424.0)
        network.add_session(session, keep_samples=False)
        source = PoissonSource(network, session, length=424.0,
                               mean=0.01, keep_trace=True)
        network.run(30.0)
        assert not is_conformant(source.trace_times,
                                 source.trace_lengths,
                                 10_000.0, 424.0)

    def test_shaping_preserves_packet_count_long_run(self):
        # Shaping delays but never drops; over a long horizon the
        # emitted count approaches the raw process's (rate > offered).
        network = make_network(LeaveInTime, capacity=1e6, seed=3)
        session = Session("s", rate=20_000.0, route=["n1"], l_max=424.0)
        network.add_session(session, keep_samples=False)
        source = shaped_poisson(network, session, rate=20_000.0,
                                depth=848.0, mean=424.0 / 10_000.0,
                                horizon=60.0)
        network.run(60.0)
        expected = 60.0 / (424.0 / 10_000.0)
        assert source.emitted == pytest.approx(expected, rel=0.1)

    def test_deeper_bucket_means_less_holding(self):
        results = {}
        for depth in (424.0, 4240.0):
            network = make_network(LeaveInTime, capacity=1e6, seed=4)
            session = Session("s", rate=10_000.0, route=["n1"],
                              l_max=424.0)
            network.add_session(session, keep_samples=False)
            source = shaped_poisson(network, session, rate=10_000.0,
                                    depth=depth, mean=0.05, horizon=60.0)
            network.run(60.0)
            gaps = [b - a for a, b in zip(source.trace_times,
                                          source.trace_times[1:])]
            results[depth] = min(gaps)
        # Shallow bucket forces >= L/r spacing; deep bucket lets
        # bursts through.
        assert results[424.0] >= 424.0 / 10_000.0 - 1e-9
        assert results[4240.0] < 424.0 / 10_000.0


class TestShapedSessionEarnsTheBound:
    def test_shaped_poisson_respects_eq12_end_to_end(self):
        rate, depth = 2000.0, 848.0
        network = make_network(LeaveInTime, nodes=3, capacity=10_000.0,
                               seed=5)
        session = Session("target", rate=rate,
                          route=["n1", "n2", "n3"], l_max=424.0,
                          token_bucket=(rate, depth))
        network.add_session(session)
        shaped_poisson(network, session, rate=rate, depth=depth,
                       mean=424.0 / 1500.0, horizon=60.0)
        # Competing load.
        for index in range(2):
            add_trace_session(network, f"bg{index}", rate=4000.0,
                              times=[0.02 * i for i in range(300)],
                              lengths=424.0, route=["n1", "n2", "n3"])
        network.run(60.0)
        bounds = compute_session_bounds(network, session)
        sink = network.sink("target")
        assert sink.received > 100
        assert sink.max_delay <= bounds.max_delay
