"""Loop equivalence: the C drain loop against the reference loop.

``Simulator.run`` has one Python reference loop and, when
``repro.sim._ckernel`` is built, a C loop that takes over every drain,
sanitized or not.  Nothing selects between them, so the only thing
that may differ is speed.  Each test here takes the
``kernel_loop`` fixture (tests/conftest.py) and so runs once on the
reference loop and once on the C loop (skipped where it is not built),
and checks *exact dispatch-log equality against the reference loop* on
the corners where a drain loop can go wrong: a tied run spanning the
``until`` horizon (inclusive and exclusive), cancellation among
same-instant events, a mid-run ``reset()``, a callback exception with
a horizon armed, and stale-handle safety.

The figure-level gates close the file: call churn, fault sweep clean
and faulted, and the 2-shard space-parallel digest must come out
bit-identical to the reference loop's.  The golden dispatch digests
and the fused-vs-naive hypothesis suite take the same fixture in
``test_dispatch_digest.py`` and
``tests/properties/test_kernel_dispatch_properties.py``.

The file keeps its name from the time the kernel had selectable
backends so that the ids of the surviving tests did not change.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import pytest

from repro.sim import kernel
from repro.sim.events import cancel
from repro.sim.kernel import Simulator
from tests.sim.test_state_backends import churn_cell, fault_cell

Log = List[Tuple[float, str]]


def on_reference_loop(fn: Callable[..., Any], *args: Any,
                      **kwargs: Any) -> Any:
    """``fn(*args, **kwargs)`` with the C loop hidden, whatever loop
    the calling test runs on."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_ckernel", None)
        return fn(*args, **kwargs)


def _horizon_workload(*, exclusive: bool, resume: bool) -> Log:
    """A 6-event same-(time, priority) run parked exactly at the
    ``until`` horizon, with earlier and later traffic around it."""
    sim = Simulator()
    log: Log = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))

    sim.schedule(0.1, cb, "early")
    for k in range(6):
        sim.schedule_at(0.5, cb, f"run{k}")
    sim.schedule_at(0.5, cb, "late-prio", priority=5)
    sim.schedule(0.9, cb, "after")
    sim.run(until=0.5, exclusive=exclusive)
    log.append((sim.now, f"cut:{sim.events_dispatched}:{sim.pending}"))
    if resume:
        sim.run()
        log.append((sim.now,
                    f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


@pytest.mark.parametrize("exclusive", [False, True],
                         ids=["inclusive", "exclusive"])
@pytest.mark.parametrize("resume", [False, True])
def test_run_spanning_horizon_matches_reference(kernel_loop,
                                                exclusive, resume):
    assert (_horizon_workload(exclusive=exclusive, resume=resume)
            == on_reference_loop(_horizon_workload,
                                 exclusive=exclusive, resume=resume))


def _cancel_inside_run_workload() -> Log:
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
    return log


def test_cancellation_inside_drained_run_matches_reference(kernel_loop):
    assert (_cancel_inside_run_workload()
            == on_reference_loop(_cancel_inside_run_workload))


def _mid_run_reset_workload() -> Log:
    """reset() fired from inside a tied run: the rest of the run (and
    everything later) must evaporate, and the kernel must accept a
    fresh schedule/run afterwards."""
    sim = Simulator()
    log: Log = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))

    def resetter(tag: str) -> None:
        log.append((sim.now, tag))
        sim.reset()

    for k in range(6):
        sim.schedule_at(0.4, resetter if k == 2 else cb, f"run{k}")
    sim.schedule(0.8, cb, "after")
    sim.run()
    log.append((sim.now, f"mid:{sim.events_dispatched}:{sim.pending}"))
    sim.schedule(0.05, cb, "act2")
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def test_mid_run_reset_matches_reference(kernel_loop):
    assert (_mid_run_reset_workload()
            == on_reference_loop(_mid_run_reset_workload))


class _Boom(Exception):
    pass


def _exception_workload() -> Log:
    """A callback raising mid-run, under an ``until`` horizon, must
    leave the undispatched tail pending and the live count exact —
    and nothing of the horizon: the next run() drains past 0.5."""
    sim = Simulator()
    log: Log = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))

    def bomb(tag: str) -> None:
        log.append((sim.now, tag))
        raise _Boom(tag)

    for k in range(6):
        sim.schedule_at(0.2, bomb if k == 3 else cb, f"run{k}")
    sim.schedule_at(0.9, cb, "past-horizon")
    with pytest.raises(_Boom):
        sim.run(until=0.5)
    log.append((sim.now, f"mid:{sim.events_dispatched}:{sim.pending}"))
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def test_exception_mid_run_matches_reference(kernel_loop):
    log = _exception_workload()
    assert log == on_reference_loop(_exception_workload)
    assert log[-2] == (0.9, "past-horizon")


def test_stale_handles_stay_safe_across_a_tied_run(kernel_loop):
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


# ----------------------------------------------------------------------
# Figure-level equivalence: each loop reproduces the reference loop's
# digests bit-for-bit
# ----------------------------------------------------------------------
# ``churn_cell`` / ``fault_cell`` return (observables digest, events).
def test_call_churn_digest_matches_reference(kernel_loop):
    assert churn_cell() == on_reference_loop(churn_cell)


@pytest.mark.parametrize("outage", [0.0, 1.0],
                         ids=["clean", "faulted"])
def test_fault_sweep_digest_matches_reference(kernel_loop, outage):
    assert fault_cell(outage) == on_reference_loop(fault_cell, outage)


def test_space_parallel_shard_digest_matches_reference(kernel_loop):
    from repro.sim.parallel import run_serial, run_sharded
    from tests.sim.test_space_parallel import DURATION, build
    golden = on_reference_loop(run_serial, build, DURATION).digest
    assert run_sharded(build, DURATION, partitions=2).digest == golden
