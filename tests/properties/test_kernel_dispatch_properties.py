"""Property tests for the fused dispatch loop and handle lifetime.

Three claims the kernel must uphold:

* any randomized schedule/cancel/reset workload dispatches in exactly
  the same order through the fused ``Simulator.run`` loop as through a
  straightforward reference loop (kept here, deliberately naive);
* no dispatch ever goes back in time: whatever mix of ``run`` /
  ``step`` / ``clear`` / ``reset`` drives it, every dispatch time is at
  or after the clock before it and the previous dispatch (``reset``
  alone rewinds, and restarts the history);
* a held handle (the plain-list heap entry) can never reach into
  somebody else's event — no object is ever handed out twice,
  ``cancel`` on a stale handle is a no-op and the live-event count
  stays exact no matter how handles are abused.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import cancel
from repro.sim.kernel import Simulator

#: Small grid with repeats so same-instant ties are common.
DELAYS = [0.0, 0.001, 0.001, 0.002, 0.0035, 0.005, 0.01, 0.0, 0.0025]

#: Hard cap on events per generated workload (keeps runs fast and
#: guarantees termination even for spawn-happy scripts).
MAX_SPAWNS = 300


class RefHandle:
    """Cancellation flag for the reference loop (lazy skip)."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


def cancel_either(handle) -> None:
    """Cancel a kernel handle (a plain list) or a :class:`RefHandle`."""
    if isinstance(handle, RefHandle):
        handle.cancel()
    else:
        cancel(handle)


def stale(handle) -> bool:
    """A kernel handle is stale exactly when its callback slot is None."""
    return handle[3] is None


class RefEngine:
    """The obvious heap-based event loop: peek, skip cancelled, pop,
    dispatch.  No fusion — the semantics the fused loop must reproduce
    bit for bit."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, int, RefHandle,
                               Callable[..., Any], Tuple[Any, ...]]] = []
        self._seq = 0

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = 0) -> RefHandle:
        assert delay >= 0
        return self._push(self.now + delay, priority, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = 0) -> RefHandle:
        assert time >= self.now
        return self._push(time, priority, callback, args)

    def _push(self, time: float, priority: int,
              callback: Callable[..., Any],
              args: Tuple[Any, ...]) -> RefHandle:
        handle = RefHandle()
        heapq.heappush(self._heap,
                       (time, priority, self._seq, handle, callback, args))
        self._seq += 1
        return handle

    def run(self, until: Optional[float] = None) -> float:
        while self._heap:
            time = self._heap[0][0]
            if self._heap[0][3].cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and time > until:
                break
            self.step()
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def step(self) -> bool:
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry[3].cancelled:
                continue
            self.now = entry[0]
            entry[4](*entry[5])
            return True
        return False

    def reset(self) -> None:
        self._heap.clear()
        self.now = 0.0


def run_workload(engine, script, until: float, budget: int):
    """Drive ``engine`` through a deterministic script of schedule /
    cancel / spawn decisions; return the (time, tag) dispatch log."""
    log: List[Tuple[float, str]] = []
    handles: List[Any] = []
    spawned = [0]

    def cb(tag: str, k: int) -> None:
        log.append((engine.now, tag))
        n = spawned[0]
        if k % 3 != 2 and n < MAX_SPAWNS:
            spawned[0] = n + 1
            child = engine.schedule(DELAYS[(k + n) % len(DELAYS)], cb,
                                    f"{tag}/{n}", (k * 5 + n) % 9,
                                    priority=(k + n) % 3 - 1)
            # Keep only some handles: the rest are dropped on the floor.
            if k % 2 == 0:
                handles.append(child)
        if k % 4 == 1 and handles:
            cancel_either(handles[(k * 7 + n) % len(handles)])

    for index, (delay_idx, priority, k) in enumerate(script):
        handles.append(engine.schedule(DELAYS[delay_idx], cb,
                                       f"root{index}", k,
                                       priority=priority))
        if index % 3 == 0:
            # Same-instant ties across roots: insertion order decides.
            engine.schedule_at(0.004, cb, f"tie{index}", k + 1)
    engine.run(until=until)
    for _ in range(budget):
        engine.step()
    engine.run()

    # Second act after a reset: stale handles must be inert.
    engine.reset()
    for handle in handles:
        cancel_either(handle)
    for index, (delay_idx, priority, k) in enumerate(script[:5]):
        engine.schedule(DELAYS[delay_idx], cb, f"act2-{index}", k,
                        priority=priority)
    engine.run()
    log.append((engine.now, "end"))
    return log


@settings(max_examples=60, deadline=None)
@given(script=st.lists(
           st.tuples(st.integers(0, len(DELAYS) - 1),
                     st.integers(-2, 2),
                     st.integers(0, 9)),
           min_size=1, max_size=20),
       until_idx=st.integers(0, len(DELAYS) - 1),
       budget=st.integers(1, 60))
def test_fused_loop_dispatches_identically_to_reference(
        script, until_idx, budget):
    until = DELAYS[until_idx] * 3 + 0.001
    fused = run_workload(Simulator(), script, until, budget)
    reference = run_workload(RefEngine(), script, until, budget)
    assert fused == reference


#: One top-level call each: schedule a root, run to an absolute horizon
#: (often behind the clock), drain, take a few steps, clear, reset.
CALL_SCRIPTS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, len(DELAYS) - 1),
              st.integers(-2, 2)),
    st.tuples(st.just("until"), st.integers(0, len(DELAYS) - 1),
              st.booleans()),
    st.tuples(st.just("run")),
    st.tuples(st.just("step"), st.integers(1, 20)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("reset"))), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(ops=CALL_SCRIPTS)
def test_no_dispatch_goes_back_in_time(ops):
    sim = Simulator()
    clock = [0.0]  # the clock as last seen, in a callback or between calls
    previous = [-inf]  # the last dispatch time since the last reset
    spawned = [0]

    def cb(k: int) -> None:
        now = sim.now
        assert now >= clock[0] and now >= previous[0]
        clock[0] = previous[0] = now
        n = spawned[0]
        if k % 3 != 2 and n < MAX_SPAWNS:
            spawned[0] = n + 1
            sim.schedule(DELAYS[(k + n) % len(DELAYS)], cb, k + n,
                         priority=(k + n) % 3 - 1)

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            sim.schedule(DELAYS[op[1]], cb, op[1], priority=op[2])
        elif kind == "until":
            sim.run(until=DELAYS[op[1]] * 3, exclusive=op[2])
        elif kind == "run":
            sim.run()
        elif kind == "step":
            for _ in range(op[1]):
                sim.step()
        elif kind == "clear":
            sim.clear()
        else:
            sim.reset()
            previous[0] = -inf
        assert kind == "reset" or sim.now >= clock[0]
        clock[0] = sim.now


@settings(max_examples=40, deadline=None)
@given(script=st.lists(
           st.tuples(st.integers(0, len(DELAYS) - 1),
                     st.integers(-2, 2),
                     st.integers(0, 9)),
           min_size=1, max_size=20))
def test_live_count_survives_stale_handle_abuse(script):
    sim = Simulator()
    handles = [sim.schedule(DELAYS[d], lambda: None, priority=p)
               for d, p, _ in script]
    # Cancel a few, dispatch everything, then abuse every stale handle.
    for handle in handles[::3]:
        cancel(handle)
    sim.run()
    assert sim.pending == 0
    for _ in range(3):
        for handle in handles:
            cancel(handle)
    assert sim.pending == 0
    # The queue must still count correctly after the abuse.
    sim.schedule(0.5, lambda: None)
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def _abuse(sim, handle):
    """A stale handle reads stale, cancels as a no-op, and a later
    ``schedule`` never hands the same object out again."""
    assert stale(handle)
    before = sim.pending
    fresh = sim.schedule(0.2, lambda: None)
    assert fresh is not handle and not stale(fresh)
    cancel(handle)
    cancel(handle)
    assert stale(handle) and not stale(fresh)
    assert sim.pending == before + 1
    return fresh


def test_held_handle_goes_stale_at_dispatch():
    sim = Simulator()
    fired = []
    held = sim.schedule(0.1, fired.append, "held")
    assert not stale(held) and held[0] == 0.1
    sim.run()
    assert fired == ["held"]
    fresh = _abuse(sim, held)
    # The untouched newcomer still fires; the stale handle stays inert.
    sim.run()
    assert stale(fresh) and sim.pending == 0


def test_no_handle_is_ever_handed_out_twice():
    # Across several schedule / dispatch rounds, with plenty of
    # discarded handles in between, ``schedule`` must never return an
    # object a caller already holds (``kept`` would list it twice).
    sim = Simulator()
    kept = []
    for _ in range(4):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)  # handle discarded
        kept.append(sim.schedule(0.1, lambda: None))
        sim.run()
        assert all(stale(handle) for handle in kept)
    assert len({id(handle) for handle in kept}) == len(kept)
    # A fresh handle is a live event: cancel works, exactly once.
    fresh = _abuse(sim, kept[0])
    cancel(fresh)
    assert sim.pending == 0


def test_held_handle_goes_stale_at_clear_and_reset():
    for wipe in (Simulator.clear, Simulator.reset):
        sim = Simulator()
        fired = []
        held = [sim.schedule(0.1 * k, fired.append, k) for k in (1, 2, 3)]
        sim.run(until=0.1)
        wipe(sim)
        assert sim.pending == 0
        for handle in held:
            cancel(_abuse(sim, handle))
        sim.run()
        assert fired == [1]  # nothing wiped ever fires
