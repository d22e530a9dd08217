"""The scheduled event — which is also the heap entry.

A pending callback is one object: the list
``[time, priority, seq, callback, args]`` that sits in the kernel's
binary heap *is* the handle ``Simulator.schedule`` returns.  List
comparison is lexicographic, so the heap orders entries by
``(time, priority, seq)``; ``seq`` is distinct per entry, which makes
the order total (the comparison never reaches the callback) and FIFO
among events scheduled for the same time and priority.  That gives
deterministic simulations — the paper lets deadline ties be "ordered
arbitrarily" and we pin that arbitrariness to insertion order.

Cancellation is lazy: a cancelled entry stays in the heap and is
skipped when popped, which keeps ``cancel`` O(1).  A handle is
**stale** exactly when its callback slot is ``None``: the kernel sets
it at dispatch and at ``clear``, the holder with :meth:`Event.cancel`.
Nothing is ever reused, so a held handle only ever names its own event.

This module is the layout's one Python definition; the only other
place that indexes the slots is ``repro/sim/_ckernel.c``.
"""

from __future__ import annotations

__all__ = ["Event"]


class Event(list):
    """``[time, priority, seq, callback, args]``: heap entry and handle.

    Built by :meth:`repro.sim.kernel.Simulator.schedule` /
    ``schedule_at``; user code treats it as an opaque handle that
    supports :meth:`cancel`.  There is deliberately no Python
    ``__init__``: construction is ``list``'s, in C, once per event.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Prevent this event from firing.

        Idempotent, and a no-op on a handle that was already dispatched
        or cleared: all three leave the callback slot ``None``.
        """
        self[3] = None

    @property
    def time(self) -> float:
        """The simulated time this event is (or was) scheduled for."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire: cancelled, cleared
        or already dispatched."""
        return self[3] is None
