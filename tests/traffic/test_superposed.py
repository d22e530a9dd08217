"""The superposed source's marked pick, and its lifecycle edges.

``SuperposedPoissonSource._emit`` draws the session index with
``random.Random.randrange``'s own algorithm written inline — ``k =
n.bit_length()`` bits, redrawn until ``< n`` — so the picks, and the
state the stream is left in, are those of ``randrange(n)`` itself.
(``tests/traffic/test_source_equivalence.py`` holds the whole source to
a generator twin that calls ``.randrange`` on the same stream.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.session import Session
from repro.sched.fcfs import FCFS
from repro.traffic.superposed import SuperposedPoissonSource
from tests.conftest import make_network

#: 1, the powers of two and their neighbours up to 2²⁰: where
#: ``bit_length`` steps and the redraw share swings between ~0 and ~½.
SIZES = sorted({1} | {2 ** k + d for k in range(1, 21) for d in (-1, 0, 1)})


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(SIZES), seed=st.integers(0, 2 ** 32))
def test_inline_pick_is_randrange_draw_for_draw(n, seed):
    network = make_network(FCFS)
    # The pick only indexes what it is given: integers stand in for
    # sessions, and ``inject`` is replaced by a recorder.
    source = SuperposedPoissonSource(network, range(n), length=424.0,
                                     mean=1.0)
    picked = []
    network.inject = lambda session, length: picked.append(session)
    source._pick.seed(seed)
    for _ in range(1000):
        source._emit()

    reference = random.Random(seed)
    assert picked == [reference.randrange(n) for _ in range(1000)]
    assert source._pick.getstate() == reference.getstate()
    assert network.sim.pending == 0  # never started: no re-arm


def _superposed(**kwargs):
    network = make_network(FCFS, capacity=1e6)
    sessions = [Session(f"s{i}", rate=32_000.0, route=["n1"], l_max=424.0)
                for i in range(3)]
    for session in sessions:
        network.add_session(session)
    return network, SuperposedPoissonSource(
        network, sessions, length=424.0, mean=0.01, **kwargs)


def test_stop_is_final_and_leaves_the_network():
    network, source = _superposed()
    source.stop()
    source.stop()
    source.start()
    network.run(1.0)
    assert source.emitted == 0
    assert network.sources == []
    # The label's streams are the caller's: they stay in the table.
    assert "superposed:agg:gaps" in network.streams


def _no_sessions():
    yield from ()


@pytest.mark.parametrize("empty", [lambda: iter(()), _no_sessions],
                         ids=["iterator", "generator"])
def test_an_empty_iterable_is_refused_as_empty(empty):
    # An iterator is truthy whatever it holds: emptiness is read off
    # the tuple the source keeps, before any rate is divided by it.
    with pytest.raises(ConfigurationError,
                       match="needs at least one session"):
        SuperposedPoissonSource(make_network(FCFS), empty(), length=424.0,
                                mean=1.0)
