"""Unit and statistical tests for Poisson and Deterministic sources."""

import statistics

import pytest

from repro.errors import ConfigurationError
from repro.traffic.onoff import OnOffSource
from repro.net.session import Session
from repro.sched.fcfs import FCFS
from repro.traffic.deterministic import DeterministicSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.superposed import SuperposedPoissonSource
from repro.traffic.trace_source import TraceSource
from tests.conftest import make_network


def poisson(mean, *, seed=0, rate=400_000.0):
    network = make_network(FCFS, capacity=1e7, seed=seed)
    session = Session("s", rate=rate, route=["n1"], l_max=424.0)
    network.add_session(session, keep_samples=False)
    source = PoissonSource(network, session, length=424.0, mean=mean,
                           keep_trace=True)
    return network, source


class TestPoisson:
    def test_mean_interarrival(self):
        network, source = poisson(1.5143e-3, seed=2)
        network.run(60.0)
        gaps = [b - a for a, b in zip(source.trace_times,
                                      source.trace_times[1:])]
        assert statistics.fmean(gaps) == pytest.approx(1.5143e-3,
                                                       rel=0.05)

    def test_mean_rate_and_utilization(self):
        _, source = poisson(1.5143e-3)
        assert source.mean_rate == pytest.approx(424 / 1.5143e-3)
        assert source.utilization() == pytest.approx(0.7, abs=0.01)

    def test_figure10_parameters(self):
        _, source = poisson(40e-3, rate=32_000.0)
        assert source.utilization() == pytest.approx(0.33, abs=0.01)

    def test_interarrival_cv_close_to_one(self):
        network, source = poisson(1e-3, seed=4)
        network.run(30.0)
        gaps = [b - a for a, b in zip(source.trace_times,
                                      source.trace_times[1:])]
        cv = statistics.pstdev(gaps) / statistics.fmean(gaps)
        assert cv == pytest.approx(1.0, rel=0.1)


class TestDeterministic:
    def test_exact_spacing(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session, keep_samples=False)
        source = DeterministicSource(network, session, length=424.0,
                                     interval=13.25e-3, keep_trace=True)
        network.run(0.2)
        expected = [round(i * 13.25e-3, 9) for i in range(
            len(source.trace_times))]
        assert source.trace_times == pytest.approx(expected)

    def test_start_delay_phases_source(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session, keep_samples=False)
        source = DeterministicSource(network, session, length=424.0,
                                     interval=0.1, start_delay=0.03,
                                     keep_trace=True)
        network.run(0.35)
        assert source.trace_times == pytest.approx([0.03, 0.13, 0.23, 0.33])

    def test_mean_rate(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        source = DeterministicSource(network, session, length=424.0,
                                     interval=13.25e-3)
        assert source.mean_rate == pytest.approx(32_000.0)

    def test_rejects_non_positive_interval(self):
        network = make_network(FCFS)
        session = Session("s", rate=1.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        with pytest.raises(ConfigurationError):
            DeterministicSource(network, session, length=424.0,
                                interval=0.0)


class TestSourceLifecycle:
    def test_start_is_idempotent(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        source = DeterministicSource(network, session, length=424.0,
                                     interval=0.01)
        source.start()
        source.start()
        network.run(0.015)
        assert source.emitted == 2
        assert network.sim.pending == 1

    def test_stop_halts_emission(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        source = DeterministicSource(network, session, length=424.0,
                                     interval=0.1)
        network.run(0.25)
        source.stop()
        network.run(1.0)
        assert source.emitted == 3  # t = 0, 0.1, 0.2

    def test_stop_before_start_is_final(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        source = DeterministicSource(network, session, length=424.0,
                                     interval=0.1)
        source.stop()
        source.start()
        network.run(1.0)
        assert source.emitted == 0
        assert not source.started
        assert network.sim.events_dispatched == 0  # it never armed

    def test_a_second_stop_does_nothing(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        source = PoissonSource(network, session, length=424.0, mean=0.01)
        network.run(0.1)
        source.stop()
        source.stop()
        network.run(0.2)
        assert source.stopped
        assert "poisson:s" not in network.streams

    @pytest.mark.parametrize("started", [False, True])
    def test_a_stopped_source_leaves_with_its_own_stream(self, started):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        source = OnOffSource(network, session, length=424.0,
                             spacing=0.01, mean_on=0.1, mean_off=0.1)
        other = PoissonSource(network, session, length=424.0, mean=0.01)
        assert network.sources == [source, other]
        if started:
            network.run(0.5)
            assert source._gaps is not None
        source.stop()
        assert network.sources == [other]
        assert "onoff:s" not in network.streams
        assert "poisson:s" in network.streams
        assert source._gaps is None  # its frame referred to the source

    def test_a_given_stream_name_is_never_released(self):
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        source = PoissonSource(network, session, length=424.0, mean=0.01,
                               stream_name="shared")
        source.stop()
        assert "shared" in network.streams

    def test_a_default_stream_already_held_is_shared_not_owned(self):
        # Two sources of one session share ``poisson:s``: the first one
        # made it and releases it; the second's stop must not fail.
        network = make_network(FCFS, capacity=1e6)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session)
        first = PoissonSource(network, session, length=424.0, mean=0.01)
        second = PoissonSource(network, session, length=424.0, mean=0.01)
        first.stop()
        assert "poisson:s" not in network.streams
        second.stop()
        assert network.sources == []


NAN, INF = float("nan"), float("inf")
_ONOFF = dict(length=424.0, spacing=0.01, mean_on=0.1, mean_off=0.1)
_BAD_FIELDS = [
    (OnOffSource, _ONOFF, "mean_off", NAN),
    (OnOffSource, _ONOFF, "mean_off", -0.1),
    (OnOffSource, _ONOFF, "spacing", NAN),
    (OnOffSource, _ONOFF, "spacing", 0.0),
    (OnOffSource, _ONOFF, "mean_on", NAN),
    (OnOffSource, _ONOFF, "mean_on", INF),
    (OnOffSource, _ONOFF, "mean_on", 0.005),
    (PoissonSource, dict(length=424.0, mean=0.01), "mean", 0.0),
    (PoissonSource, dict(length=424.0, mean=0.01), "mean", NAN),
    (PoissonSource, dict(length=424.0, mean=0.01), "mean", INF),
    (DeterministicSource, dict(length=424.0, interval=0.01), "interval",
     NAN),
    (DeterministicSource, dict(length=424.0, interval=0.01), "interval",
     INF),
    (DeterministicSource, dict(length=424.0, interval=0.01),
     "start_delay", NAN),
    (DeterministicSource, dict(length=424.0, interval=0.01),
     "start_delay", INF),
    (DeterministicSource, dict(length=424.0, interval=0.01),
     "start_delay", -1.0),
    (PoissonSource, dict(length=424.0, mean=0.01), "length", 0.0),
    (PoissonSource, dict(length=424.0, mean=0.01), "length", NAN),
    (PoissonSource, dict(length=424.0, mean=0.01), "length", 425.0),
    (OnOffSource, _ONOFF, "length", -1.0),
    (TraceSource, dict(times=[0.0, 1.0], lengths=[424.0, 100.0]),
     "lengths", [424.0, NAN]),
    (TraceSource, dict(times=[0.0], lengths=424.0), "lengths", 500.0),
]


@pytest.mark.parametrize(
    "kind, good, field, value", _BAD_FIELDS,
    ids=[f"{kind.__name__}-{field}={value}"
         for kind, _, field, value in _BAD_FIELDS])
def test_constructor_rejects_a_bad_field(kind, good, field, value):
    """Refused when built, naming the field — not partway through the
    run — and the refused source never joins the network."""
    network = make_network(FCFS, capacity=1e6)
    session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
    network.add_session(session)
    kind(network, session, **good)  # the good values are good
    with pytest.raises(ConfigurationError, match=field):
        kind(network, session, **{**good, field: value})
    assert len(network.sources) == 1


@pytest.mark.parametrize("field, value", [
    ("mean", 0.0), ("mean", NAN), ("length", NAN), ("start_delay", -1.0)])
def test_superposed_constructor_rejects_a_bad_field(field, value):
    network = make_network(FCFS, capacity=1e6)
    session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
    network.add_session(session)
    good = dict(length=424.0, mean=0.01, start_delay=0.0)
    with pytest.raises(ConfigurationError, match=field):
        SuperposedPoissonSource(network, [session],
                                **{**good, field: value})
    assert network.sources == []
