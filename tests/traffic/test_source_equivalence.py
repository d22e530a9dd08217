"""Timer-callback sources against the generator sources they replaced.

Sources used to be a ``Process`` around a ``_run`` generator around
``intervals()``.  They now drive themselves with kernel timers
(``_arm`` draws a gap, ``_emit`` ends it).  The generator form lives on
here, as the reference the callback form is held to: the same emissions at
the same instants for the same sessions, and the same number of
dispatched events — the schedule is part of the contract, because every
dispatch-order golden in ``tests/sim`` depends on it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.base import TrafficSource
from repro.traffic.deterministic import DeterministicSource
from repro.traffic.onoff import OnOffSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.superposed import SuperposedPoissonSource
from repro.traffic.trace_source import TraceSource
from tests.conftest import make_network
from tests.traffic.generator_process import Process

LENGTH = 424.0
CAPACITY = 1e6


# ----------------------------------------------------------------------
# The reference: generator-driven sources, as they were
# ----------------------------------------------------------------------
def _run_source(source):
    """``TrafficSource._run`` before the timer callbacks, with the
    options the sources no longer have taken out."""
    network = source.network
    sim = network.sim
    for gap in source.intervals():
        yield gap
        length = source.length
        network.inject(source.session, length)
        source.emitted += 1
        if source.keep_trace:
            source.trace_times.append(sim.now)
            source.trace_lengths.append(length)


def _run_superposed(source):
    """``SuperposedPoissonSource._run`` before the callbacks, with
    ``max_packets`` taken out."""
    n = len(source.sessions)
    while True:
        yield source._gap.sample()
        session = source.sessions[source._pick.randrange(n)]
        source.network.inject(session, source.length)
        source.emitted += 1


class GeneratorDriver:
    """Start and stop a source the old way: a ``Process`` per source."""

    def __init__(self, source):
        self.source = source
        self.process = None

    def start(self):
        source = self.source
        if source.started:
            return
        source.started = True  # keeps Network.run from starting it
        body = (_run_superposed if isinstance(
            source, SuperposedPoissonSource) else _run_source)
        self.process = Process(source.network.sim, body(source))
        self.process.start(source.start_delay)

    def stop(self):
        if self.process is not None:
            self.process.stop()


class CallbackDriver:
    """The source's own ``start``/``stop``."""

    def __init__(self, source):
        self.source = source

    def start(self):
        self.source.start()

    def stop(self):
        self.source.stop()


DRIVERS = {"generator": GeneratorDriver, "callback": CallbackDriver}


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _network(seed, sessions=1):
    network = make_network(LeaveInTime, nodes=2, capacity=CAPACITY,
                           seed=seed)
    made = []
    for index in range(sessions):
        session = Session(f"s{index}", rate=64_000.0, route=["n1", "n2"],
                          l_max=LENGTH)
        network.add_session(session, keep_samples=False)
        made.append(session)
    return network, made


def _onoff(seed):
    network, (session,) = _network(seed)
    return network, OnOffSource(network, session, length=LENGTH,
                                spacing=0.005, mean_on=0.05,
                                mean_off=0.03, keep_trace=True)


def _poisson(seed):
    network, (session,) = _network(seed)
    return network, PoissonSource(network, session, length=LENGTH,
                                  mean=0.004, keep_trace=True)


def _deterministic(seed):
    network, (session,) = _network(seed)
    return network, DeterministicSource(network, session, length=LENGTH,
                                        interval=0.0125, start_delay=0.003,
                                        keep_trace=True)


def _trace(seed):
    network, (session,) = _network(seed)
    times = [0.0, 0.01, 0.01, 0.04, 0.25, 0.26, 0.9]
    lengths = [424.0, 212.0, 424.0, 100.0, 424.0, 300.0, 424.0]
    return network, TraceSource(network, session, times=times,
                                lengths=lengths, keep_trace=True)


def _superposed(seed):
    network, sessions = _network(seed, sessions=7)
    return network, SuperposedPoissonSource(network, sessions,
                                            length=LENGTH, mean=0.02)


def _back_to_back(seed):
    # One packet per transmission time: every tick ties with the
    # completion of the packet before it, so the order in which the
    # emission and the next timer were scheduled decides what n1 sees.
    network, (session,) = _network(seed)
    return network, DeterministicSource(network, session, length=LENGTH,
                                        interval=LENGTH / CAPACITY)


SCENARIOS = {"onoff": _onoff, "poisson": _poisson,
             "deterministic": _deterministic, "trace": _trace,
             "superposed": _superposed,
             "back_to_back": _back_to_back}


def _record_injections(network):
    """Log ``(time, length, session id)`` of every ``Network.inject``."""
    log = []
    inject = network.inject

    def recording(session, length):
        log.append((network.sim.now, length, session.id))
        return inject(session, length)

    network.inject = recording
    return log


def _observe(build, driver_name, seed, script):
    """Build a scenario, let ``script`` drive it, report what happened."""
    network, source = build(seed)
    log = _record_injections(network)
    driver = DRIVERS[driver_name](source)
    script(network, driver)
    sinks = {sid: (sink.received, sink.max_delay)
             for sid, sink in network.sinks.items()}
    peaks = {name: node.buffer_peak
             for name, node in network.nodes.items()}
    return {"emissions": log, "emitted": source.emitted,
            "events": network.sim.events_dispatched,
            "pending": network.sim.pending, "sinks": sinks,
            "peaks": peaks}


def _both(build, seed, script):
    return (_observe(build, "generator", seed, script),
            _observe(build, "callback", seed, script))


# ----------------------------------------------------------------------
# Drawn seeds and horizons
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SCENARIOS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       horizon=st.floats(0.01, 1.5, allow_nan=False))
def test_callback_source_is_the_generator_source(kind, seed, horizon):
    def script(network, driver):
        driver.start()
        network.run(horizon)

    reference, observed = _both(SCENARIOS[kind], seed, script)
    assert observed == reference
    if horizon > 0.3:
        assert reference["emitted"] > 0


# ----------------------------------------------------------------------
# Scripted lifecycles
# ----------------------------------------------------------------------
def _fixed(seed, **kwargs):
    """One packet every 10 ms from t = 0 (plus ``start_delay``)."""
    network, (session,) = _network(seed)
    return network, DeterministicSource(network, session, length=LENGTH,
                                        interval=0.01, keep_trace=True,
                                        **kwargs)


def _times(outcome):
    return [round(time, 9) for time, _, _ in outcome["emissions"]]


def test_emission_is_scheduled_before_the_next_timer():
    """Emit first, next timer second — the order the goldens assume.

    The completion that emission *k* schedules ties with tick *k + 1*;
    scheduled first, it runs first, and n1 never holds two packets.
    """
    def script(network, driver):
        driver.start()
        network.run(0.05)

    reference, observed = _both(_back_to_back, 0, script)
    assert observed == reference
    assert observed["emitted"] > 100
    assert observed["peaks"]["n1"] == {"s0": LENGTH}


def test_start_delay_offsets_the_first_gap():
    def script(network, driver):
        driver.start()
        network.run(0.05)

    reference, observed = _both(
        lambda seed: _fixed(seed, start_delay=0.025), 0, script)
    assert observed == reference
    assert _times(observed) == [0.025, 0.035, 0.045]


def test_stop_mid_gap_cancels_the_pending_timer():
    def script(network, driver):
        driver.start()
        network.run(0.025)
        assert network.sim.pending == 1
        driver.stop()
        assert network.sim.pending == 0
        network.run(0.1)

    reference, observed = _both(_fixed, 0, script)
    assert observed == reference
    assert _times(observed) == [0.0, 0.01, 0.02]


def test_start_in_the_middle_of_a_run():
    def script(network, driver):
        # sim.run, not Network.run: that would start the source at 0.
        network.sim.schedule(0.0333, driver.start, priority=0)
        network.sim.run(until=0.06)

    reference, observed = _both(
        lambda seed: _fixed(seed, start_delay=0.001), 0, script)
    assert observed == reference
    assert _times(observed) == [0.0343, 0.0443, 0.0543]


@pytest.mark.parametrize("stop_first", [True, False])
def test_stop_from_another_event_at_the_instant_of_a_tick(stop_first):
    """Same instant, either order: insertion order decides, as before."""
    def script(network, driver):
        sim = network.sim
        if stop_first:
            # Scheduled before the source has any timer: lower seq than
            # the tick it ties with at t = 30 ms, so the stop runs first
            # and that tick never fires.
            sim.schedule_at(0.03, driver.stop, priority=0)
            driver.start()
        else:
            driver.start()
            sim.run(until=0.025)
            # The tick for t = 30 ms is already queued; this lands
            # behind it.
            sim.schedule_at(0.03, driver.stop, priority=0)
        network.run(0.1)

    reference, observed = _both(_fixed, 0, script)
    assert observed == reference
    expected = [0.0, 0.01, 0.02] + ([] if stop_first else [0.03])
    assert _times(observed) == expected
    assert observed["pending"] == 0


def test_stop_from_inside_the_sources_own_tick():
    """A callback reached from the emission may stop the source.

    (The generator form could not: ``Process.stop`` closed a generator
    that was executing.  No reference to compare with.)
    """
    network, source = _fixed(0)
    inject = network.inject

    def stopping(session, length):
        packet = inject(session, length)
        if session.packets_sent == 3:
            source.stop()
        return packet

    network.inject = stopping
    network.run(0.2)
    assert source.emitted == 3
    assert source.trace_times == pytest.approx([0.0, 0.01, 0.02])
    assert network.sim.pending == 0


def test_double_start_schedules_nothing_more():
    def once(network, driver):
        driver.start()
        network.run(0.05)

    def twice(network, driver):
        driver.start()
        driver.start()
        network.run(0.02)
        driver.start()
        network.run(0.05)

    assert (_observe(_fixed, "callback", 0, twice)
            == _observe(_fixed, "callback", 0, once)
            == _observe(_fixed, "generator", 0, once))


class _Scripted(TrafficSource):
    """Yields exactly the gaps it is given."""

    def __init__(self, network, session, gaps):
        super().__init__(network, session, length=LENGTH, keep_trace=True)
        self._script = gaps

    def intervals(self):
        yield from self._script


def _scripted(gaps):
    def build(seed):
        network, (session,) = _network(seed)
        return network, _Scripted(network, session, gaps)
    return build


def test_exhausted_intervals_end_the_source():
    def script(network, driver):
        driver.start()
        network.run(1.0)

    reference, observed = _both(_scripted([0.01, 0.0, 0.02]), 0, script)
    assert observed == reference
    assert _times(observed) == [0.01, 0.01, 0.03]
    assert observed["pending"] == 0


def test_intervals_may_be_any_iterable():
    network, (session,) = _network(0)

    class Listed(_Scripted):
        def intervals(self):
            return list(self._script)

    source = Listed(network, session, [0.01, 0.01])
    network.run(1.0)
    assert source.trace_times == pytest.approx([0.01, 0.02])


@pytest.mark.parametrize("bad", ["soon", None, -0.001, math.nan])
@pytest.mark.parametrize("driver_name", sorted(DRIVERS))
def test_bad_gaps_raise_simulation_error(driver_name, bad):
    def script(network, driver):
        driver.start()
        with pytest.raises(SimulationError):
            network.run(1.0)

    outcome = _observe(_scripted([0.01, bad, 0.01]), driver_name, 0,
                       script)
    assert outcome["emitted"] == 1
