"""The simulation kernel: clock, event loop, and scheduling interface.

A :class:`Simulator` owns the virtual clock and the pending-event queue.
Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.schedule_at` (absolute time), and the loop in
:meth:`Simulator.run` dispatches them in time order.

Design notes
------------
* Time never goes backwards; scheduling into the past raises
  :class:`~repro.errors.SimulationError` rather than silently clamping,
  because in this codebase a past-scheduled event always indicates a
  scheduler-arithmetic bug (e.g. a negative holding time, which the
  paper proves cannot occur).
* ``priority`` breaks ties among simultaneous events. Lower runs first.
  The network layer uses it to ensure, e.g., that a packet's arrival at
  a node is processed before the same node's transmitter looks for work
  at the identical instant.
* The kernel is single-threaded and reentrant-safe in the only way that
  matters for DES: callbacks may freely schedule and cancel other
  events, including at the current instant.
* :meth:`Simulator.run` is a *fused* dispatch loop: it pops the heap
  directly (one pop per event, cancelled entries walked once) with the
  heap and ``heappop`` bound to locals.  The heap entry *is* the
  handle — one plain list per scheduled callback
  (:mod:`repro.sim.events`), nothing recycled.  One Python loop, one
  horizon comparison per event, behaviourally identical to
  ``while step(): ...`` — proven by the digest tests in
  ``tests/sim/test_dispatch_digest.py``.  The kernel knows no
  observer: a traced, sanitized or fault-armed run takes the same
  loop, and a caller that needs a budget drives :meth:`step`.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

_heappush = heapq.heappush

__all__ = ["Simulator"]

#: Default tie-break priority for ordinary events.
PRIORITY_NORMAL = 0


class Simulator:
    """Discrete-event simulator: virtual clock plus event loop."""

    __slots__ = ("_heap", "_seq", "now", "_running", "_dispatched")

    def __init__(self) -> None:
        #: Binary heap of ``[time, priority, seq, callback, args]``
        #: entries (:mod:`repro.sim.events`).  The list keeps its
        #: identity for the simulator's whole lifetime (``clear``
        #: empties it in place), so :meth:`run` may bind it once.
        self._heap: List[list] = []
        #: Next insertion sequence number, the last tie-breaker.
        self._seq = 0
        #: Current simulated time in seconds; read-only to callers.  A
        #: plain attribute, not a property: callbacks read the clock
        #: several times per event and a descriptor call is measurable.
        self.now = 0.0
        self._running = False
        self._dispatched = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_dispatched(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._dispatched

    @property
    def pending(self) -> int:
        """Number of live events still scheduled, counted on demand
        (O(heap): a diagnostic)."""
        return sum(event[3] is not None for event in self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = PRIORITY_NORMAL) -> list:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        # ``not >=`` rather than ``<``: NaN fails every comparison, so
        # this form rejects it for the price of the same one test.
        if not delay >= 0:
            raise SimulationError(
                f"negative or NaN delay {delay!r} scheduling {callback!r}")
        seq = self._seq
        self._seq = seq + 1
        event = [self.now + delay, priority, seq, callback, args]
        _heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = PRIORITY_NORMAL) -> list:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self.now!r}")
        seq = self._seq
        self._seq = seq + 1
        event = [time, priority, seq, callback, args]
        _heappush(self._heap, event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pop(self) -> Optional[list]:
        """Remove and return the earliest live event without running it.

        Cancelled entries met on the way are discarded.  The returned
        event is out of the heap and keeps its callback and args: it is
        the caller's to run or drop.  Returns ``None`` when nothing is
        pending.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if event[3] is not None:
                return event
        return None

    def step(self) -> bool:
        """Dispatch the single earliest event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty.  The cold-path sibling of :meth:`run`, same semantics.
        """
        event = self.pop()
        if event is None:
            return False
        self.now = event[0]
        self._dispatched += 1
        callback = event[3]
        event[3] = None
        callback(*event[4])
        return True

    def run(self, until: Optional[float] = None, *,
            exclusive: bool = False) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is then
            advanced exactly to ``until`` (events at later times stay
            queued). ``None`` means run until the queue drains.
        exclusive:
            Treat ``until`` as a half-open horizon: dispatch only
            events strictly before ``until`` and leave events at
            exactly ``until`` queued (the clock still advances to
            ``until``).  This is the barrier-window mode of the
            space-parallel kernel (:mod:`repro.sim.parallel`): a shard
            runs ``[T, T + w)`` so that cross-shard messages arriving
            at exactly ``T + w`` can be injected at the barrier before
            any local event at that instant runs.

        Returns the clock value when the loop stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if exclusive and until is None:
            raise SimulationError(
                "run(exclusive=True) needs an explicit until horizon")
        # NaN fails every comparison, so ``time > until`` would never
        # stop the loop: reject it once, before the loop starts.
        if until is not None and until != until:
            raise SimulationError(f"NaN horizon until={until!r}")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        # Dispatch count kept in a local and written back once in the
        # ``finally``: ``events_dispatched`` is a post-run diagnostic
        # (nothing in the tree reads it from inside a callback) and the
        # attribute round-trip costs ~5% of a bare dispatch.
        dispatched = 0
        # The loop ends a horizon by pushing the first live event past
        # it back.  Pop-then-undo beats peek-then-pop: the undo runs at
        # most once per run() call, the peek would run once per event.
        limit = inf if until is None else until
        try:
            # The horizon test is the only per-event check (one float
            # comparison until the horizon is reached).  An empty heap
            # surfaces as ``IndexError`` from ``heappop``: once per
            # run(), not per event, where a ``while heap`` truth test
            # would cost every iteration.
            while True:
                try:
                    event = heappop(heap)
                except IndexError:
                    break
                callback = event[3]
                if callback is None:
                    continue
                time = event[0]
                if time >= limit and (exclusive or time > limit):
                    _heappush(heap, event)
                    break
                self.now = time
                dispatched += 1
                # The handle goes stale at dispatch.
                event[3] = None
                callback(*event[4])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._dispatched += dispatched
            self._running = False
        return self.now

    def clear(self) -> None:
        """Drop every pending event, marking their handles stale.

        The clock and the dispatch counter keep their values; use
        :meth:`reset` to rewind those too.
        """
        for event in self._heap:
            event[3] = None
        self._heap.clear()

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self.clear()
        self.now = 0.0
        self._dispatched = 0
