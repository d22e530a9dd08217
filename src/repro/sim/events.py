"""The scheduled event — which is also the heap entry.

A pending callback is one plain ``list``, ``[time, priority, seq,
callback, args]``, built by a list display in
:meth:`~repro.sim.kernel.Simulator.schedule`; the entry that sits in
the kernel's binary heap *is* the handle ``schedule`` returns.  A list
display takes ``list``'s free list, where a subclass would build a
temporary tuple and pay a type call and a subclass dealloc per event.
List comparison is lexicographic, so the heap orders entries by
``(time, priority, seq)``; ``seq`` is distinct per entry, which makes
the order total (the comparison never reaches the callback) and FIFO
among events scheduled for the same time and priority.  That gives
deterministic simulations — the paper lets deadline ties be "ordered
arbitrarily" and we pin that arbitrariness to insertion order.

Cancellation is lazy: a cancelled entry stays in the heap and is
skipped when popped, which keeps :func:`cancel` O(1).  A handle is
**stale** exactly when its callback slot (index 3) is ``None``: the
kernel sets it at dispatch and at ``clear``, the holder with
:func:`cancel`.  Nothing is ever reused, so a held handle only ever
names its own event.

The slots are indexed here and in ``repro/sim/kernel.py`` (which
builds the entry).
"""

from __future__ import annotations

__all__ = ["cancel"]


def cancel(handle: list) -> None:
    """Prevent the event ``handle`` names from firing.

    Idempotent, and a no-op on a handle that was already dispatched or
    cleared: all three leave the callback slot ``None``.
    """
    handle[3] = None
