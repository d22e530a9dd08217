"""Unit tests for the event list: ordering, ties, cancellation.

Driven through ``Simulator.schedule_at`` / ``pop`` / ``pending`` /
``clear`` — the heap entry, a plain list, is the handle, so there is
no queue object to test apart from the simulator.  A handle is stale
exactly when its callback slot (index 3) is ``None``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.events import cancel
from repro.sim.kernel import Simulator


def nothing():
    return None


class TestOrdering:
    def test_pops_in_time_order(self):
        sim = Simulator()
        for t in (3.0, 1.0, 2.0):
            sim.schedule_at(t, nothing)
        times = []
        while (event := sim.pop()) is not None:
            times.append(event[0])
        assert times == [1.0, 2.0, 3.0]

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(float("nan"), nothing)
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule(float("nan"), nothing)
        assert sim.pending == 0

    def test_priority_breaks_time_ties(self):
        sim = Simulator()
        for priority in (5, -1, 0):
            sim.schedule_at(1.0, nothing, priority=priority)
        priorities = [sim.pop()[1] for _ in range(3)]
        assert priorities == [-1, 0, 5]

    def test_fifo_among_equal_time_and_priority(self):
        sim = Simulator()
        handles = [sim.schedule_at(1.0, nothing, i) for i in range(5)]
        popped = [sim.pop() for _ in range(5)]
        assert all(a is b for a, b in zip(popped, handles))


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, nothing)
        sim.schedule_at(2.0, nothing)
        cancel(first)
        assert sim.pop()[0] == 2.0

    def test_cancel_updates_live_count(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, nothing)
        assert sim.pending == 1 and handle[3] is not None
        cancel(handle)
        assert sim.pending == 0 and handle[3] is None

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, nothing)
        sim.schedule_at(2.0, nothing)
        cancel(handle)
        cancel(handle)
        assert sim.pending == 1

    def test_pop_empty_returns_none(self):
        assert Simulator().pop() is None

    def test_clear_empties_queue(self):
        sim = Simulator()
        sim.schedule_at(1.0, nothing)
        sim.schedule_at(2.0, nothing)
        sim.clear()
        assert sim.pending == 0
        assert sim.pop() is None

    def test_cancel_after_clear_does_not_corrupt_count(self):
        # Regression (from the time the live count was a counter): a
        # handle cancelled after the clear drove it below zero.
        sim = Simulator()
        handle = sim.schedule_at(1.0, nothing)
        sim.clear()
        assert handle[3] is None
        cancel(handle)
        assert sim.pending == 0
        sim.schedule_at(2.0, nothing)
        assert sim.pending == 1
        assert sim.pop()[0] == 2.0

    def test_cancel_after_simulator_reset_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, nothing)
        sim.reset()
        cancel(event)
        assert sim.pending == 0


class TestEvent:
    def test_comparison_is_total_via_sequence(self):
        # Equal (time, priority): seq decides, and the comparison never
        # reaches the callbacks (functions do not order).
        a = [1.0, 0, 0, nothing, ()]
        b = [1.0, 0, 1, print, ()]
        assert a < b
        assert not (b < a)

    def test_carries_callback_and_args(self):
        sink = []
        sim = Simulator()
        sim.schedule_at(1.0, sink.append, "payload")
        _time, _priority, _seq, callback, args = sim.pop()
        callback(*args)
        assert sink == ["payload"]

    def test_schedule_returns_a_plain_list(self):
        # Exactly ``list``, built by a list display: a subclass would
        # miss ``list``'s free list and pay a type call, a temporary
        # tuple and a subclass dealloc on every event.  A plain list
        # also takes no attributes, so a handle carries nothing beside
        # its five slots.
        sim = Simulator()
        for handle in (sim.schedule(1.0, nothing),
                       sim.schedule_at(1.0, nothing, "x", priority=2)):
            assert type(handle) is list
            with pytest.raises(AttributeError):
                handle.time = 2.0
        assert handle == [1.0, 2, 1, nothing, ("x",)]
