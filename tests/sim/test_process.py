"""Unit tests for the generator-process adapter.

Not part of ``repro.sim``: the adapter drives the reference that
``tests/traffic/test_source_equivalence.py`` holds the timer-callback
sources to, so what it does with delays, stops and bad yields is
pinned here.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from tests.traffic.generator_process import Process


def test_process_resumes_after_yielded_delays():
    sim = Simulator()
    ticks = []

    def run():
        while True:
            yield 1.0
            ticks.append(sim.now)

    Process(sim, run()).start()
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]


def test_process_ends_on_return():
    sim = Simulator()
    ticks = []

    def run():
        yield 1.0
        ticks.append(sim.now)
        return

    process = Process(sim, run()).start()
    sim.run()
    assert ticks == [1.0]
    assert process.alive is False


def test_start_delay_offsets_first_resumption():
    sim = Simulator()
    ticks = []

    def run():
        yield 1.0
        ticks.append(sim.now)

    Process(sim, run()).start(delay=5.0)
    sim.run()
    assert ticks == [6.0]


def test_stop_cancels_pending_resumption():
    sim = Simulator()
    ticks = []

    def run():
        while True:
            yield 1.0
            ticks.append(sim.now)

    process = Process(sim, run()).start()
    sim.run(until=2.5)
    process.stop()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert process.alive is False


def test_negative_yield_raises():
    sim = Simulator()

    def run():
        yield -1.0

    Process(sim, run()).start()
    with pytest.raises(SimulationError):
        sim.run()


def test_non_numeric_yield_raises():
    sim = Simulator()

    def run():
        yield "soon"

    Process(sim, run()).start()
    with pytest.raises(SimulationError):
        sim.run()


def test_zero_delay_yield_runs_at_same_instant():
    sim = Simulator()
    ticks = []

    def run():
        yield 0.0
        ticks.append(sim.now)
        yield 0.0
        ticks.append(sim.now)

    Process(sim, run()).start()
    sim.run()
    assert ticks == [0.0, 0.0]
