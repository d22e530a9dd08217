"""Event objects and the pending-event queue.

The queue is a binary heap ordered by ``(time, priority, sequence)``.
The sequence number makes ordering total and FIFO among events scheduled
for the same time and priority, which gives deterministic simulations —
important here because the paper lets deadline ties be "ordered
arbitrarily" and we pin that arbitrariness to insertion order.

Cancellation is lazy: a cancelled event stays in the heap and is skipped
when popped. This keeps cancellation O(1) and is the standard technique
for simulators whose events are rarely cancelled.

Event recycling
---------------
Dispatch allocating one :class:`Event` per scheduled callback dominates
kernel garbage churn on long runs, so the queue keeps a bounded
free list of spent events and :meth:`EventQueue.push` reuses them.  The
lifetime rules (also in ``docs/performance.md``):

* a handle returned by ``push``/``Simulator.schedule`` is *live* until
  its callback is dispatched, it is cancelled, or its queue is cleared;
  afterwards it is **stale**;
* a stale handle is marked ``cancelled`` (at dispatch, at
  ``EventQueue.clear``, and at ``EventQueue.pop``), so calling
  :meth:`Event.cancel` on it is a no-op and can never touch ``_live``
  — the ``_queue`` backref is set once and never detached;
* an event is only recycled when the kernel can prove (via
  ``sys.getrefcount``) that no user code still references the handle,
  so a held handle is never mutated into somebody else's event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue", "FREE_LIST_MAX",
           "USER_PRIORITY_MIN", "USER_PRIORITY_MAX"]

#: Upper bound on recycled events kept per queue.  Steady-state dispatch
#: needs at most "peak concurrently pending events" spares; the cap just
#: keeps a pathological burst from pinning memory forever.
FREE_LIST_MAX = 4096

#: Inclusive band of tie-break priorities available to user events.
#: The kernel's two run-horizon sentinels sit one step outside it on
#: either side: the inclusive-horizon sentinel (``run(until=...)``)
#: sorts *after* every user event at the same instant, and the
#: exclusive-horizon sentinel (``run(..., exclusive=True)``, used by
#: the space-parallel barrier windows) sorts *before* every user event
#: at the window boundary.  Scheduling outside this band would let a
#: user event tie with a sentinel.
USER_PRIORITY_MIN = -(2 ** 31) + 1
USER_PRIORITY_MAX = 2 ** 31 - 1

_heappush = heapq.heappush


def _recycled() -> None:  # pragma: no cover - never dispatched
    """Placeholder callback parked on free-listed events.

    A recycled event must not keep its old callback/args alive; this
    sentinel also makes accidental dispatch of a free-listed event loud
    and greppable instead of silently re-running stale work.
    """
    raise RuntimeError("dispatched a recycled Event; kernel bug")


class Event:
    """A callback scheduled to run at a simulated time.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`
    rather than directly; user code mostly treats them as opaque handles
    that support :meth:`cancel`.

    ``cancelled`` doubles as the staleness flag: the kernel sets it when
    the event is dispatched, so a handle held across dispatch reports
    ``cancelled`` and cancels as a no-op (see the module docstring for
    the full lifetime rules).
    """

    __slots__ = ("time", "priority", "seq", "callback", "args",
                 "cancelled", "_queue")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.9f} p={self.priority} {name}{state}>"


class EventQueue:
    """A heap of pending :class:`Event` objects with lazy cancellation.

    The heap stores ``(time, priority, seq, event)`` tuples so ordering
    uses C-level tuple comparison instead of a Python ``__lt__`` call —
    a measurable win given that heap sift comparisons dominate the
    kernel's cost on large simulations.

    ``_free`` holds spent events for reuse (see the module docstring);
    only the kernel's dispatch loop appends to it, after proving the
    handle escaped to nobody.

    :meth:`push` is the reference implementation of scheduling;
    ``Simulator.schedule``/``schedule_at`` inline its body for speed.
    Keep them in sync.
    """

    __slots__ = ("_heap", "_seq", "_live", "_free")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._free: List[Event] = []

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return self._live

    def push(self, time: float, priority: int,
             callback: Callable[..., Any],
             args: Tuple[Any, ...]) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return its handle.

        Reuses a recycled :class:`Event` when one is available, so
        steady-state dispatch through the fused ``Simulator.run`` loop
        allocates nothing per event.  The callers' clocks differ, so
        the only input rejected here is the one no clock can order: NaN
        (``schedule``/``schedule_at`` fold that into their range test).
        """
        if time != time:
            raise SimulationError(f"cannot schedule at {time!r}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        free = self._free
        if free:
            # A recycled event already carries this queue's backref:
            # the free list is per-queue and dispatch never detaches.
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, priority, seq, callback, args)
            event._queue = self
        _heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.

        Cancelled events encountered on the way are discarded.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            self._live -= 1
            # The handle goes stale at pop, same as in the fused loop:
            # a later cancel() must not decrement _live again.
            event.cancelled = True
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every pending event, marking their handles stale.

        Marking matters: a handle created before the clear must not
        reach back into this (now emptied) queue when cancelled later —
        e.g. cancelling a stale event after ``Simulator.reset()`` would
        otherwise decrement ``_live`` below zero and corrupt the live
        count that ``pending`` and ``__len__`` report.  A cleared event
        will never fire, so reporting it ``cancelled`` is accurate.
        The free list survives a clear.
        """
        for entry in self._heap:
            entry[3].cancelled = True
        self._heap.clear()
        self._live = 0
