"""Discrete-event simulation kernel.

This subpackage is a self-contained, dependency-free discrete-event
simulator in the classic event-scheduling style, built because the
paper's evaluation is entirely simulation-based and no simulation
framework is available offline.

The public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop and clock.
* :class:`~repro.sim.events.Event` — a scheduled callback, cancellable
  (the heap entry itself).
* :class:`~repro.sim.rng.RandomStreams` — reproducible, named random
  substreams so each traffic source gets an independent stream.
* Monitors in :mod:`repro.sim.monitor` — tallies and time-series
  recorders used by the measurement layer.
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.monitor import Tally, TimeSeries
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "Simulator",
    "RandomStreams",
    "Tally",
    "TimeSeries",
    "Tracer",
    "TraceRecord",
]
