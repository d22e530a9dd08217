"""Discrete-event simulation kernel.

This subpackage is a self-contained, dependency-free discrete-event
simulator in the classic event-scheduling style, built because the
paper's evaluation is entirely simulation-based and no simulation
framework is available offline.

The public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop and clock.
* :func:`~repro.sim.events.cancel` — stops a scheduled callback; the
  handle ``schedule`` returns is the heap entry itself, a plain list.
* :class:`~repro.sim.rng.RandomStreams` — reproducible, named random
  substreams so each traffic source gets an independent stream.
* :class:`~repro.sim.monitor.Tally` — the streaming statistics the
  measurement layer records.
"""

from repro.sim.events import cancel
from repro.sim.kernel import Simulator
from repro.sim.monitor import Tally
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "cancel",
    "RandomStreams",
    "Tally",
    "Tracer",
    "TraceRecord",
]
