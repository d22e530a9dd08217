"""Digest-equality gates for the fused-dispatch overhaul.

The kernel rewrite (single fused ``Simulator.run`` loop, event
recycling, zero-cost tracing) must be *behaviourally invisible*: the
``(time, priority, seq)`` total order and every figure observable have
to come out bit-identical to the pre-overhaul kernel.  These tests pin
that claim to golden SHA-256 digests computed on the pre-overhaul tree
(commit 2342b1d) and re-checked on every run since:

* a scripted kernel workload full of same-instant ties, negative/zero/
  positive priorities, cancellations, and a mid-script reset — the
  dispatch *order* digest;
* one shortened Figure-7 MIX cell — what comes out, how many events it
  took and what a tracer saw, the same whoever is watching.

If a kernel change breaks one of these digests it changed simulation
semantics, not just speed, and must be rejected (or the change must be
argued through and the goldens re-baselined in the same commit).

``utilization()`` is deliberately *not* part of the figure digest: the
same PR fixes the known busy-time overstatement for runs stopped
mid-transmission (see ``test_busy_time.py``), which legitimately
changes utilization readings while leaving event order untouched.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

from repro.experiments.common import build_mix_network
from repro.experiments.figure07 import TARGET_SESSION
from repro.sim.events import cancel
from repro.sim.kernel import Simulator
from repro.units import ms, seconds

# Golden digests computed on the pre-overhaul kernel (commit 2342b1d).
KERNEL_ORDER_DIGEST = (
    "c2e634790a88f8a4d8a4564c22497859019d499af7e3f5c4fd58cfb3e015b6ed")
#: What comes out and how many events it took are pinned apart: the
#: observables digest was recorded at 019d85f with the event count left
#: out of the hash and must never move; the count moves when the event
#: list is re-organised (33041 until decision-epoch forwarding parked
#: arrivals at busy nodes).  Both hold with tracing off, on and under
#: the sanitizer: neither observer changes which events run (until
#: PR 21 either one kept the 33041).
FIG07_CELL_OBSERVABLES_TRACE_OFF = (
    "7f2f104a6a1b049f2516b062a2876571b0b0427f25b6a5fd34b9872340ee7a28")
FIG07_CELL_EVENTS = 24460
#: The 52950 trace records as a multiset: the digest of their sorted
#: lines, recorded at 3dd4576 — where a tracer still forced one event
#: per arrival — before any edit under ``src/``, so it proves a tracer
#: on the parked path sees what the event path showed it.  (The stream
#: in emission order, events hashed in, read ebc96f87… from 2342b1d
#: until then.)
FIG07_CELL_TRACE = (
    "661b060b7aefafbd78daeadbbb141588e6d6cbac03e5676c9732f4e0a705538a")

#: Shortened fig07 cell: one mid-sweep a_OFF point, one simulated second.
_A_OFF = ms(88.0)
_CELL_DURATION = seconds(1.0)


def _digest(parts: List[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def run_scripted_kernel_workload(sim: Simulator) -> List[Tuple[float, str]]:
    """A deterministic schedule/cancel/reset script with many ties.

    Exercises: identical (time, priority) pairs resolved by insertion
    order, negative and positive priorities, cancellation of pending
    events from inside callbacks, callbacks scheduling at the current
    instant, and a reset followed by a second run.
    """
    log: List[Tuple[float, str]] = []
    handles = []

    def cb(tag: str) -> None:
        log.append((sim.now, tag))
        n = len(log)
        if n % 3 == 0 and sim.now < 0.5:
            sim.schedule(0.001 * (n % 7), cb, f"{tag}/c{n}")
        if n % 5 == 0 and handles:
            cancel(handles[n % len(handles)])
        if n % 4 == 0 and sim.now < 0.3:
            handles.append(sim.schedule(0.0005 * (n % 11), cb,
                                        f"{tag}/d{n}", priority=n % 3 - 1))

    for k in range(50):
        handles.append(sim.schedule(0.001 * k, cb, f"root{k}",
                                    priority=k % 3 - 1))
        if k % 7 == 0:
            # Same-instant ties across root events: insertion order must
            # decide.
            sim.schedule_at(0.02, cb, f"tie{k}")
    sim.run(until=0.075)
    for _ in range(40):  # a budget: step(), not run()
        sim.step()
    sim.run()  # drain

    # Reset mid-script, then a short second act: the clock rewinds and
    # stale handles must stay inert.
    sim.reset()
    for handle in handles:
        cancel(handle)
    for k in range(10):
        sim.schedule(0.002 * (k % 4), cb, f"act2-{k}", priority=-(k % 2))
    sim.run()
    log.append((sim.now, f"end:{sim.events_dispatched}:{sim.pending}"))
    return log


def kernel_order_digest() -> str:
    log = run_scripted_kernel_workload(Simulator())
    return _digest([f"{t!r}|{tag}" for t, tag in log])


def trace_line(record) -> str:
    detail = sorted(record.detail.items())
    return (f"{record.time!r}|{record.category}|{record.node}"
            f"|{record.session}|{record.packet}|{detail!r}")


def fig07_cell(trace_on: bool) -> Tuple[str, int, Optional[str]]:
    """One shortened fig07 MIX cell: ``(observables digest, events
    dispatched, digest of the sorted trace lines or None)``."""
    network = build_mix_network(_A_OFF, seed=0)
    network.tracer.recording = trace_on
    network.run(_CELL_DURATION)
    sink = network.sink(TARGET_SESSION)
    observables = _digest([
        repr(sink.received),
        repr(sink.bits_received),
        repr(sink.max_delay),
        repr(sink.min_delay),
        repr(sink.jitter),
        repr(sink.delay.mean),
        repr(network.sim.now),
    ])
    trace = _digest(sorted(map(trace_line, network.tracer.records))) \
        if trace_on else None
    return observables, network.sim.events_dispatched, trace


def test_kernel_dispatch_order_is_bit_identical():
    assert kernel_order_digest() == KERNEL_ORDER_DIGEST


def test_fig07_cell_is_bit_identical_tracing_off():
    assert fig07_cell(trace_on=False) == (
        FIG07_CELL_OBSERVABLES_TRACE_OFF, FIG07_CELL_EVENTS, None)


def test_fig07_cell_is_bit_identical_tracing_on():
    assert fig07_cell(trace_on=True) == (
        FIG07_CELL_OBSERVABLES_TRACE_OFF, FIG07_CELL_EVENTS,
        FIG07_CELL_TRACE)


def test_retired_backend_variable_is_ignored(monkeypatch):
    """``REPRO_KERNEL_BACKEND`` selected a kernel backend until the
    axis was deleted; the frozen ledger benchmark still sets it on
    traced children, so it must be ignored, never rejected."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "batch")
    assert fig07_cell(trace_on=False) == (
        FIG07_CELL_OBSERVABLES_TRACE_OFF, FIG07_CELL_EVENTS, None)
