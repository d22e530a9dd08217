"""Generator-based simulation processes — a test reference.

Not part of ``repro.sim``: this is the adapter
``test_source_equivalence.py`` drives the generator-form reference
sources with (``tests/sim/test_process.py`` pins its own behaviour).

Traffic sources are most naturally written as loops —

.. code-block:: python

    def run(self):
        while True:
            yield self.interarrival()
            self.emit_packet()

— rather than as chains of callbacks. :class:`Process` adapts such a
generator to the event kernel: each value the generator yields is taken
as a delay in seconds before the generator is resumed. Returning (or
raising ``StopIteration``) ends the process.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import SimulationError
from repro.sim.events import cancel
from repro.sim.kernel import PRIORITY_NORMAL, Simulator

__all__ = ["Process"]


class Process:
    """Drive a generator whose yielded values are delays in seconds."""

    __slots__ = ("_sim", "_generator", "name", "alive", "_pending")

    def __init__(self, sim: Simulator,
                 generator: Generator[float, None, None],
                 name: str = "process") -> None:
        self._sim = sim
        self._generator = generator
        self.name = name
        self.alive = True
        self._pending = None

    def start(self, delay: float = 0.0) -> "Process":
        """Schedule the first resumption after ``delay`` seconds."""
        self._pending = self._sim.schedule(delay, self._resume,
                                           priority=PRIORITY_NORMAL)
        return self

    def stop(self) -> None:
        """Terminate the process; any pending resumption is cancelled."""
        self.alive = False
        if self._pending is not None:
            cancel(self._pending)
            self._pending = None
        self._generator.close()

    def _resume(self) -> None:
        self._pending = None
        if not self.alive:
            return
        # StopIteration is how a generator signals exhaustion; next()
        # has no non-raising probe.
        try:
            delay = next(self._generator)
        except StopIteration:
            self.alive = False
            return
        if not isinstance(delay, (int, float)):
            raise SimulationError(
                f"process {self.name!r} yielded {delay!r}; "
                "processes must yield numeric delays in seconds")
        if delay < 0:
            raise SimulationError(
                f"process {self.name!r} yielded negative delay {delay!r}")
        self._pending = self._sim.schedule(float(delay), self._resume,
                                           priority=PRIORITY_NORMAL)
