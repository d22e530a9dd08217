"""Unit tests for the simulator kernel: clock, run control, safety."""

from typing import Callable, List, Optional, Tuple

import pytest

from repro.errors import SimulationError
from repro.sim.events import cancel
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_takes_no_backend_argument(self):
        # The kernel has one class and no selector; the old keyword
        # fails the way any unknown keyword does.
        with pytest.raises(TypeError):
            Simulator(backend="batch")

    def test_schedule_relative_delay(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.25]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule(1.0, second)

        def second():
            seen.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [("first", 1.0), ("second", 2.0)]

    def test_args_are_forwarded(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, seen.append, 42)
        sim.run()
        assert seen == [42]


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        stopped_at = sim.run(until=4.0)
        assert stopped_at == 4.0
        assert sim.now == 4.0
        assert sim.pending == 1

    def test_run_until_executes_event_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.0, lambda: seen.append(sim.now))
        sim.run(until=4.0)
        assert seen == [4.0]

    def test_events_beyond_until_stay_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        sim.run(until=10.0)
        assert seen == [1, 5]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_pop_step_and_clear(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.2, seen.append, "b")
        sim.schedule(0.1, seen.append, "a")
        event = sim.pop()
        # Popped, not dispatched: it keeps its callback and args.
        assert event is not None and event[3] is not None
        assert event[3:] == [seen.append, ("a",)]
        assert sim.pending == 1
        assert sim.step() is True
        assert seen == ["b"]
        assert sim.step() is False
        sim.schedule(0.3, seen.append, "c")
        sim.clear()
        assert sim.pending == 0

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        failure = []

        def reenter():
            try:
                sim.run()
            except SimulationError as error:
                failure.append(error)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(failure) == 1

    def test_reset_clears_state(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending == 0
        assert sim.events_dispatched == 0

    def test_dispatch_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(0.5, lambda: None)
        sim.run()
        assert sim.events_dispatched == 4

    def test_cancelled_events_never_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append("no"))
        sim.schedule(2.0, lambda: seen.append("yes"))
        cancel(handle)
        sim.run()
        assert seen == ["yes"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        seen = []
        for name in ("a", "b", "c"):
            sim.schedule(1.0, seen.append, name)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_priority_orders_simultaneous_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "late", priority=1)
        sim.schedule(1.0, seen.append, "early", priority=-1)
        sim.run()
        assert seen == ["early", "late"]


class TestExclusiveHorizon:
    """run(until=B, exclusive=True) — the barrier-window mode."""

    def test_event_at_horizon_stays_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.0, lambda: seen.append(sim.now))
        stopped_at = sim.run(until=4.0, exclusive=True)
        assert seen == []
        assert stopped_at == 4.0
        assert sim.now == 4.0
        assert sim.pending == 1

    def test_events_strictly_before_horizon_dispatch(self):
        sim = Simulator()
        seen = []
        for time in (1.0, 3.999999, 4.0, 5.0):
            sim.schedule(time, seen.append, time)
        sim.run(until=4.0, exclusive=True)
        assert seen == [1.0, 3.999999]

    def test_inclusive_follow_up_delivers_boundary_event(self):
        # The barrier protocol: an exclusive run stops *at* B, the
        # coordinator injects cross-shard arrivals at exactly B, and
        # the next (inclusive) run dispatches local and injected
        # events at B together under the normal priority order.
        sim = Simulator()
        seen = []
        sim.schedule(4.0, seen.append, "local")
        sim.run(until=4.0, exclusive=True)
        sim.schedule_at(4.0, seen.append, "injected", priority=-1)
        sim.run(until=4.0)
        assert seen == ["injected", "local"]

    def test_clock_advances_on_empty_queue(self):
        sim = Simulator()
        assert sim.run(until=3.0, exclusive=True) == 3.0
        assert sim.now == 3.0

    def test_exclusive_requires_until(self):
        with pytest.raises(SimulationError):
            Simulator().run(exclusive=True)


class TestNaNIsRejected:
    """NaN fails every comparison: ``nan < 0`` let it into the heap,
    where it silently breaks the ordering of everything around it."""

    def test_schedule_rejects_nan_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_schedule_at_rejects_nan_time(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_rejection_inside_a_run_leaves_the_order_intact(self):
        sim = Simulator()
        seen = []

        def poison():
            try:
                sim.schedule(float("nan"), seen.append, "nan")
            except SimulationError:
                seen.append("rejected")

        for delay in (3.0, 1.0, 2.0):
            sim.schedule(delay, seen.append, delay)
        sim.schedule(1.5, poison)
        sim.run()
        assert seen == [1.0, "rejected", 2.0, 3.0]

    def test_nan_raised_from_a_callback_surfaces_from_run(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(float("nan"), print))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_rejects_nan_horizon(self):
        # ``time > nan`` is never true: before the check this spun at
        # 100 % CPU on a self-rescheduling source and never returned.
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0 and sim.pending == 1
        assert sim.run(until=2.5) == 2.5  # not left marked running

    def test_infinite_delay_is_still_a_time(self):
        sim = Simulator()
        sim.schedule(float("inf"), lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.pending == 1


class TestHorizonHoldsForAnyPriority:
    """An event at exactly ``until`` runs (inclusive) or stays queued
    (exclusive) whatever its priority: the loop compares the event's
    time against the horizon, so no priority can sort it across.  (A
    fast loop once ended the horizon with a queued entry instead, and a
    priority outside that entry's band made it disagree with ``step``.)"""

    @pytest.mark.parametrize("exclusive", [False, True],
                             ids=["inclusive", "exclusive"])
    @pytest.mark.parametrize("priority", [2 ** 31 + 5, -2 ** 31 - 5,
                                          2 ** 80])
    @pytest.mark.parametrize("mode", ["plain", "sanitized"])
    def test_event_at_the_horizon(self, mode, priority, exclusive):
        # Both modes take the one loop: a sanitized network's kernel is
        # the plain kernel.
        from repro.analysis.verify.sanitizer import Sanitizer
        from repro.net.network import Network
        sim = (Network(sanitizer=Sanitizer()).sim if mode == "sanitized"
               else Simulator())
        seen = []
        sim.schedule_at(1.0, seen.append, "at-horizon", priority=priority)
        assert sim.run(until=1.0, exclusive=exclusive) == 1.0
        # Inclusive runs it whatever its priority; exclusive never does.
        assert seen == ([] if exclusive else ["at-horizon"])
        assert sim.pending == (1 if exclusive else 0)
        sim.run()
        assert seen == ["at-horizon"]


def test_clear_from_a_callback_keeps_the_horizon():
    """``clear()`` used to take the fast loop's queued horizon entry
    with it: whatever the callback scheduled next ran, however far
    past ``until``, and the clock followed it."""
    sim = Simulator()
    seen = []

    def wipe():
        sim.clear()
        sim.schedule_at(5.0, seen.append, "late")

    sim.schedule_at(1.0, wipe)
    assert sim.run(until=2.0) == 2.0
    assert (seen, sim.pending) == ([], 1)
    assert sim.run() == 5.0
    assert seen == ["late"]


# ----------------------------------------------------------------------
# Tied runs: the corners where a drain loop can go wrong, each pinned to
# the dispatch log it must produce
# ----------------------------------------------------------------------
Log = List[Tuple[float, str]]


def _logging(sim: Simulator, log: Log) -> Callable[[str], None]:
    def cb(tag: str) -> None:
        log.append((sim.now, tag))
    return cb


@pytest.mark.parametrize("exclusive", [False, True],
                         ids=["inclusive", "exclusive"])
@pytest.mark.parametrize("resume", [False, True])
def test_run_spanning_horizon(exclusive, resume):
    """A 6-event same-(time, priority) run parked exactly at the
    ``until`` horizon, with earlier and later traffic around it: the
    whole instant runs (inclusive) or stays queued (exclusive), and a
    later ``run()`` picks up where the horizon cut."""
    sim = Simulator()
    log: Log = []
    cb = _logging(sim, log)
    sim.schedule(0.1, cb, "early")
    for k in range(6):
        sim.schedule_at(0.5, cb, f"run{k}")
    sim.schedule_at(0.5, cb, "late-prio", priority=5)
    sim.schedule(0.9, cb, "after")
    sim.run(until=0.5, exclusive=exclusive)
    log.append((sim.now, f"cut:{sim.events_dispatched}:{sim.pending}"))
    if resume:
        sim.run()
        log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    instant = [(0.5, f"run{k}") for k in range(6)] + [(0.5, "late-prio")]
    after = [(0.9, "after"), (0.9, "end:9:0")]
    if exclusive:
        expected = [(0.1, "early"), (0.5, "cut:1:8")]
        expected += instant + after if resume else []
    else:
        expected = [(0.1, "early"), *instant, (0.5, "cut:8:1")]
        expected += after if resume else []
    assert log == expected


def test_cancellation_inside_drained_run():
    """Members of one tied run cancelling later (and earlier) members
    of the same run, plus an outsider at the next instant."""
    sim = Simulator()
    log: Log = []
    handles = []

    def cb(tag: str, kill: Optional[int]) -> None:
        log.append((sim.now, tag))
        if kill is not None:
            cancel(handles[kill])

    for k in range(8):
        # run2 kills run5, run3 kills run0 (already dispatched: no-op),
        # run6 kills the next-instant outsider.
        kill = {2: 5, 3: 0, 6: 8}.get(k)
        handles.append(sim.schedule_at(0.2, cb, f"run{k}", kill))
    handles.append(sim.schedule_at(0.3, cb, "outsider", None))
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    assert log == [(0.2, f"run{k}") for k in (0, 1, 2, 3, 4, 6, 7)] + [
        (0.2, "end:7:0")]


def test_mid_run_reset():
    """reset() fired from inside a tied run: the rest of the run (and
    everything later) evaporates, and the kernel accepts a fresh
    schedule/run afterwards."""
    sim = Simulator()
    log: Log = []
    cb = _logging(sim, log)

    def resetter(tag: str) -> None:
        cb(tag)
        sim.reset()

    for k in range(6):
        sim.schedule_at(0.4, resetter if k == 2 else cb, f"run{k}")
    sim.schedule(0.8, cb, "after")
    sim.run()
    log.append((sim.now, f"mid:{sim.events_dispatched}:{sim.pending}"))
    sim.schedule(0.05, cb, "act2")
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    assert log == [(0.4, "run0"), (0.4, "run1"), (0.4, "run2"),
                   (0.0, "mid:3:0"), (0.05, "act2"), (0.05, "end:4:0")]


class _Boom(Exception):
    pass


def test_exception_mid_run():
    """A callback raising mid-run, under an ``until`` horizon, leaves
    the undispatched tail pending and the live count exact — and
    nothing of the horizon: the next run() drains past 0.5."""
    sim = Simulator()
    log: Log = []
    cb = _logging(sim, log)

    def bomb(tag: str) -> None:
        cb(tag)
        raise _Boom(tag)

    for k in range(6):
        sim.schedule_at(0.2, bomb if k == 3 else cb, f"run{k}")
    sim.schedule_at(0.9, cb, "past-horizon")
    with pytest.raises(_Boom):
        sim.run(until=0.5)
    log.append((sim.now, f"mid:{sim.events_dispatched}:{sim.pending}"))
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    assert log == [(0.2, f"run{k}") for k in range(4)] + [
        (0.2, "mid:4:3"), (0.2, "run4"), (0.2, "run5"),
        (0.9, "past-horizon"), (0.9, "end:7:0")]


def test_stale_handles_stay_safe_across_a_tied_run():
    """Held members of a tied run go stale at dispatch, cancel as a
    no-op afterwards, and no later ``schedule`` returns one of them —
    so a stale handle can never cancel somebody else's event."""
    sim = Simulator()
    for _ in range(6):
        sim.schedule_at(0.1, lambda: None)  # a tied run, discarded
    held = [sim.schedule_at(0.1, lambda: None) for _ in range(3)]
    killed = sim.schedule_at(0.1, lambda: None)
    cancel(killed)
    sim.run()
    stale = held + [killed]
    assert all(handle[3] is None for handle in stale)
    fresh = [sim.schedule(0.2, lambda: None) for _ in range(12)]
    assert not any(new is old for new in fresh for old in stale)
    for handle in stale:
        cancel(handle)
    assert not any(handle[3] is None for handle in fresh)
    assert sim.pending == 12
    sim.run()
    assert sim.pending == 0 and sim.events_dispatched == 9 + 12
