"""Unit tests for the event queue: ordering, ties, cancellation."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


def make_queue():
    return EventQueue()


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = make_queue()
        fired = []
        for t in (3.0, 1.0, 2.0):
            queue.push(t, 0, fired.append, (t,))
        times = []
        while (event := queue.pop()) is not None:
            times.append(event.time)
        assert times == [1.0, 2.0, 3.0]

    def test_nan_time_rejected(self):
        # The reference push accepts what schedule/schedule_at accept.
        queue = make_queue()
        with pytest.raises(SimulationError, match="nan"):
            queue.push(float("nan"), 0, lambda: None, ())
        assert len(queue) == 0

    def test_priority_breaks_time_ties(self):
        queue = make_queue()
        queue.push(1.0, 5, lambda: None, ())
        queue.push(1.0, -1, lambda: None, ())
        queue.push(1.0, 0, lambda: None, ())
        priorities = [queue.pop().priority for _ in range(3)]
        assert priorities == [-1, 0, 5]

    def test_fifo_among_equal_time_and_priority(self):
        queue = make_queue()
        handles = [queue.push(1.0, 0, lambda: None, (i,))
                   for i in range(5)]
        popped = [queue.pop() for _ in range(5)]
        assert popped == handles

    def test_peek_time_matches_next_pop(self):
        queue = make_queue()
        queue.push(2.5, 0, lambda: None, ())
        queue.push(1.5, 0, lambda: None, ())
        assert queue.peek_time() == 1.5
        assert queue.pop().time == 1.5

    def test_peek_time_empty_is_none(self):
        assert make_queue().peek_time() is None


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        queue = make_queue()
        first = queue.push(1.0, 0, lambda: None, ())
        queue.push(2.0, 0, lambda: None, ())
        first.cancel()
        assert queue.pop().time == 2.0

    def test_cancel_updates_live_count(self):
        queue = make_queue()
        handle = queue.push(1.0, 0, lambda: None, ())
        assert len(queue) == 1
        handle.cancel()
        assert len(queue) == 0

    def test_double_cancel_is_idempotent(self):
        queue = make_queue()
        handle = queue.push(1.0, 0, lambda: None, ())
        handle.cancel()
        handle.cancel()
        assert len(queue) == 0

    def test_peek_skips_cancelled_head(self):
        queue = make_queue()
        head = queue.push(1.0, 0, lambda: None, ())
        queue.push(2.0, 0, lambda: None, ())
        head.cancel()
        assert queue.peek_time() == 2.0

    def test_pop_empty_returns_none(self):
        assert make_queue().pop() is None

    def test_clear_empties_queue(self):
        queue = make_queue()
        queue.push(1.0, 0, lambda: None, ())
        queue.push(2.0, 0, lambda: None, ())
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None

    def test_cancel_after_clear_does_not_corrupt_count(self):
        # Regression: clear() used to leave stale _queue backrefs, so a
        # handle cancelled after the clear drove _live below zero and
        # desynchronized len() from the heap forever after.
        queue = make_queue()
        handle = queue.push(1.0, 0, lambda: None, ())
        queue.clear()
        handle.cancel()
        assert len(queue) == 0
        queue.push(2.0, 0, lambda: None, ())
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_cancel_after_simulator_reset_is_harmless(self):
        from repro.sim.kernel import Simulator
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.reset()
        event.cancel()
        assert sim.pending == 0


class TestEvent:
    def test_comparison_is_total_via_sequence(self):
        a = Event(1.0, 0, 0, lambda: None, ())
        b = Event(1.0, 0, 1, lambda: None, ())
        assert a < b
        assert not (b < a)

    def test_carries_callback_and_args(self):
        sink = []
        queue = make_queue()
        queue.push(1.0, 0, sink.append, ("payload",))
        event = queue.pop()
        event.callback(*event.args)
        assert sink == ["payload"]
