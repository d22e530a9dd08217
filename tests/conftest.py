"""Shared test fixtures and builders.

Most scheduler tests want a tiny deterministic network: one or a few
nodes, explicit packet traces, and full tracing enabled. The helpers
here keep those tests declarative.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence

import pytest

from repro.net.network import Network
from repro.net.session import Session
from repro.net.sink import Sink
from repro.sched.base import DeadlineScheduler
from repro.sim.trace import Tracer
from repro.traffic.onoff import OnOffSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.trace_source import TraceSource


def event_per_arrival(factory: Callable[[], object]) -> Callable[[], object]:
    """``factory`` with every scheduler it builds marked ``deferrable =
    False``: nothing is parked in front of such a node and each of its
    holds keeps a timer.  A network built from it is the
    event-per-arrival reference twin of the parked run — no plan,
    observer or option selects that path at run time any more, so the
    differential tests build it themselves (``docs/simulator.md``)."""
    def build():
        scheduler = factory()
        scheduler.deferrable = False
        return scheduler
    return build


class VirtualClockOracle(DeadlineScheduler):
    """Eq. 2 as written, ``F_i = max(t_i, F_{i-1}) + L_i/r_s``, served
    in ``F`` order: what ``LeaveInTime`` with its default policy must
    reproduce packet for packet (``tests/sched/test_equivalence.py``)."""

    def __init__(self) -> None:
        super().__init__()
        self._previous_deadline: Dict[str, float] = {}  # F_{i-1}

    def on_arrival(self, packet, now):
        session = packet.session
        base = max(now, self._previous_deadline.get(session.id, now))
        packet.eligible_time = now
        packet.deadline = base + packet.length / session.rate
        self._previous_deadline[session.id] = packet.deadline
        self._push(packet)


def make_network(scheduler_factory: Callable[[], object], *,
                 nodes: int = 1, capacity: float = 1000.0,
                 propagation: float = 0.0,
                 l_max_network: Optional[float] = None,
                 trace: bool = False, seed: int = 0) -> Network:
    """A tandem of ``nodes`` identical nodes named n1..nN."""
    network = Network(seed=seed, tracer=Tracer(trace),
                      l_max_network=l_max_network)
    for index in range(1, nodes + 1):
        network.add_node(f"n{index}", scheduler_factory(),
                         capacity=capacity, propagation=propagation)
    return network


class RecordingSink(Sink):
    """A sink that also keeps every delivered packet, in delivery order,
    for tests asserting per-packet scheduler state; hand it to
    ``Network.add_session(s)`` as ``sink=``."""

    __slots__ = ("packets",)

    def __init__(self, session_id: str, **options) -> None:
        super().__init__(session_id, **options)
        self.packets: list = []

    def receive(self, packet, now: float) -> None:
        self.packets.append(packet)
        super().receive(packet, now)


def add_trace_session(network: Network, session_id: str, *,
                      rate: float, times: Sequence[float],
                      lengths, route: Optional[List[str]] = None,
                      l_max: Optional[float] = None,
                      jitter_control: bool = False,
                      token_bucket=None):
    """A session fed by an explicit (times, lengths) trace.

    Returns ``(session, sink, source)``; the sink keeps packet objects
    so tests can inspect deadlines and holding times.
    """
    if route is None:
        route = sorted(network.nodes)
    if l_max is None:
        if isinstance(lengths, (int, float)):
            l_max = float(lengths)
        else:
            l_max = float(max(lengths))
    session = Session(session_id, rate=rate, route=route, l_max=l_max,
                      jitter_control=jitter_control,
                      token_bucket=token_bucket)
    sink = network.add_session(session, sink=RecordingSink(session_id))
    source = TraceSource(network, session, times=times, lengths=lengths)
    return session, sink, source


class UniformLengths:
    """Source mixin: packet lengths uniform on the session's ``[l_min,
    l_max]``, drawn from the stream ``length_stream`` names.

    This is how a source with variable lengths is written: it sets
    ``length`` inside ``intervals()``, before it yields the gap that
    ends at that packet.  ``packets`` ends the source after that many
    (None: never).
    """

    def __init__(self, *args, length_stream: str,
                 packets: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lengths = self.network.streams.stream(length_stream)
        self._packets = packets

    def intervals(self):
        uniform = self._lengths.uniform
        session = self.session
        for gap in islice(super().intervals(), self._packets):
            self.length = uniform(session.l_min, session.l_max)
            yield gap


class UniformLengthPoisson(UniformLengths, PoissonSource):
    """A Poisson source of :class:`UniformLengths` packets."""


class UniformLengthOnOff(UniformLengths, OnOffSource):
    """An ON-OFF source of :class:`UniformLengths` packets."""


@pytest.fixture
def tracer():
    return Tracer(enabled=True)
