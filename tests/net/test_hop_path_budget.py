"""A machine-independent budget for the per-packet-hop path.

Wall-clock gates cannot see a call or an event creeping back into the
forwarding chain; counters can.  This runs ``Network.run`` of four
short cells — the Fig. 7 MIX cell with and without jitter control (the
ledger's ``mix_onoff`` / ``mix_jitter``, shortened), a 10³-session
heavy-traffic cell and a call-churn cell — under ``cProfile`` and under
an opcode tracer, and holds three numbers per cell:

* events dispatched and packet-hops served — **exactly** the committed
  integers.  Hops are what the network did and never change; events
  are what it cost, and a change there also moves the event-count
  goldens in ``tests/sim`` (the observables digests next to them must
  not move);
* Python-level function calls per packet-hop — at most the committed
  ceiling (what the tree reached, rounded up to one decimal).  Raise a
  ceiling only with a reason; lower it when a PR shortens the path;
* bytecode instructions executed per packet-hop (``sys.settrace`` with
  ``frame.f_trace_opcodes``, the reference Python drain loop) — at most
  the committed ceiling, what the tree reached rounded up.  It is the
  one noise-free proxy for wall time this box has, and only a proxy:
  a shorter count from a slower C call is not a gain.  Same rule.

Calls are those of ``benchmarks/ledger`` (``total.py_calls_per_pkt_hop``):
every profiled function that is not a C builtin.

``make hop-budget`` (``pytest -s`` on this file) prints, per cell, the
calls per hop and the opcodes per hop of the twelve heaviest functions:
the table a per-hop change is sized with.

The heavy_1e3 cell's set-up has a row of its own, ``construct``: Python
frames entered and opcodes per session from ``_cell`` entry to
``Network.run`` — what registering one session costs (``Session()``,
``add_session``, ``acquire``, ``register_session``), held to a ceiling
by the same rule and printed by ``make hop-budget`` after the per-hop
tables.

The kernel under those cells gets the same treatment at the bottom of
the file: the ledger's spin probe (``kernel_spin``), held to its exact
event count, its calls per event and the set of Python frames it runs.
"""

import cProfile
import gc
import pstats
import sys
from collections import Counter

import pytest

from repro.analysis.throughput import kernel_spin
from repro.experiments import call_churn, heavy_traffic
from repro.experiments.common import build_mix_network, mix_specs
from repro.net.network import Network
from repro.sim import kernel
from repro.units import ms


def _mix(jitter):
    jitter_ids = (frozenset(spec.session_id for spec in mix_specs())
                  if jitter else frozenset())
    build_mix_network(ms(6.5), seed=0, jitter_ids=jitter_ids).run(1.0)


HEAVY_SESSIONS = 1000


def _heavy_cell():
    (cell,) = [cell for cell in heavy_traffic.cells(
        duration=2.0, seed=0, sessions=HEAVY_SESSIONS, rhos=(0.95,),
        backends=("soa",), topologies=("single",))
        if cell.kwargs["discipline"] == "leave-in-time"]
    return cell


def _heavy():
    cell = _heavy_cell()
    cell.fn(**cell.kwargs)


def _churn():
    call_churn._cell(duration=3.0, seed=0, offered_erlangs=60.0,
                     mean_holding=0.5)


def _python_calls(profiler):
    """Calls of every profiled function that is not a C builtin."""
    return sum(row[1] for (filename, _, _), row
               in pstats.Stats(profiler).stats.items()
               if filename != "~")


CELLS = {"plain": lambda: _mix(False), "jitter": lambda: _mix(True),
         "heavy_1e3": _heavy, "call_churn": _churn}

#: cell -> (events dispatched, packet-hops served), seed 0.  While every
#: arrival, regulator release and sink delivery was a kernel event the
#: events read 44142 / 52628 / 20261 / 23363; the hops are the same.
EVENTS_AND_HOPS = {"plain": (27323, 17723), "jitter": (27787, 17503),
                   "heavy_1e3": (13511, 6754), "call_churn": (21356, 10226)}

#: cell -> Python calls per packet-hop inside ``Network.run``.  Before
#: the timer-callback sources and the flattened forwarding chain the
#: mix cells read 24.7 / 29.9; before decision-epoch forwarding the four
#: read 16.2 / 19.3 / 22.0 / 33.7; while lateness was a ``Tally.observe``
#: per hop and the marked pick a ``randrange``, 14.7 / 18.2 / 20.0 / 32.8.
CALLS_PER_HOP_CEILING = {"plain": 13.7, "jitter": 15.9,
                         "heavy_1e3": 16.6, "call_churn": 31.8}

#: cell -> opcodes per packet-hop inside ``Network.run`` on CPython 3.11.
#: With a Welford tally per hop, a policy object per first packet and
#: ``randrange`` per marked pick: 809.0 / 960.7 / 1014.8 / 1086.9; with
#: ``network.faults`` read in the park condition and in ``_hold``:
#: 773.8 / 903.5 / 927.9 / 1053.1.
OPCODES_PER_HOP_CEILING = {"plain": 771, "jitter": 899,
                           "heavy_1e3": 925, "call_churn": 1053}

#: heavy_1e3 set-up, from ``_cell`` entry to ``Network.run``: (Python
#: frames entered, opcodes) per session on CPython 3.11.  While
#: ``Session.__init__`` called ``math.isfinite`` per field and
#: ``add_session`` built its missing-node list in a comprehension every
#: time, and every node called its scheduler's no-op hook: 6.05 / 287.4.
CONSTRUCT_PER_SESSION_CEILING = (4.1, 263)


def _run_cell(cell, monkeypatch, watch, unwatch):
    """Run ``cell`` with ``watch()`` / ``unwatch()`` around its one
    ``Network.run``, on the reference drain loop (so the ``ckernel``
    job counts what every other job counts); check the cell did the
    committed work and return its packet-hops."""
    monkeypatch.setattr(kernel, "_ckernel", None)
    networks = []
    run = Network.run

    def watched_run(network, duration):
        networks.append(network)
        gc.collect()  # earlier tests' garbage: see test_construct_budget
        watch()
        try:
            return run(network, duration)
        finally:
            unwatch()

    monkeypatch.setattr(Network, "run", watched_run)
    CELLS[cell]()

    (network,) = networks
    hops = sum(node.packets_served for node in network.nodes.values())
    assert (network.sim.events_dispatched, hops) == EVENTS_AND_HOPS[cell]
    return hops


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_hop_path_budget(cell, monkeypatch):
    profiler = cProfile.Profile()
    hops = _run_cell(cell, monkeypatch, profiler.enable, profiler.disable)
    calls = _python_calls(profiler)
    print(f"\n{cell}: {calls / hops:.3f} Python calls per packet-hop")
    ceiling = CALLS_PER_HOP_CEILING[cell]
    assert calls / hops <= ceiling, (
        f"{calls / hops:.3f} Python calls per packet-hop in the {cell} "
        f"cell; the committed ceiling is {ceiling}")


def _opcode_tracer():
    """A ``sys.settrace`` function and its per-function (opcodes,
    frames entered) counters."""
    opcodes, calls = Counter(), Counter()

    def tracer(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = True
            calls[frame.f_code.co_qualname] += 1
        elif event == "opcode":
            opcodes[frame.f_code.co_qualname] += 1
        return tracer

    return tracer, opcodes, calls


def _print_opcodes(label, unit, per, opcodes, calls):
    """The table ``make hop-budget`` shows: twelve heaviest functions."""
    print(f"\n{label}: {sum(opcodes.values()) / per:.1f} opcodes per "
          f"{unit}, {sum(calls.values()) / per:.3f} frames entered")
    for name, count in opcodes.most_common(12):
        print(f"  {name:<44}{count / per:8.1f}"
              f"{calls[name] / per:8.3f} calls")


needs_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the ceilings count CPython 3.11's bytecode")


@needs_311
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_hop_path_opcodes(cell, monkeypatch):
    tracer, opcodes, calls = _opcode_tracer()
    outer = sys.gettrace()  # coverage's, under ``--cov``: hand it back
    hops = _run_cell(cell, monkeypatch, lambda: sys.settrace(tracer),
                     lambda: sys.settrace(outer))
    total = sum(opcodes.values())
    _print_opcodes(cell, "packet-hop", hops, opcodes, calls)
    ceiling = OPCODES_PER_HOP_CEILING[cell]
    assert total / hops <= ceiling, (
        f"{total / hops:.1f} opcodes per packet-hop in the {cell} cell; "
        f"the committed ceiling is {ceiling}")


class _Built(Exception):
    """Raised where ``Network.run`` would start: set-up is over."""


@needs_311
def test_construct_budget(monkeypatch):
    """What registering one session costs, from ``_cell`` entry to
    ``Network.run`` on the heavy_1e3 cell: 10^3 passes through
    ``Session()`` / ``add_session`` / ``acquire`` /
    ``register_session`` plus the cell's own set-up, per session."""
    tracer, opcodes, calls = _opcode_tracer()
    outer = sys.gettrace()
    built = []

    def stop(network, duration):
        sys.settrace(outer)
        built.append(network)
        raise _Built

    monkeypatch.setattr(Network, "run", stop)
    cell = _heavy_cell()
    # A collection inside the traced region would finalize earlier
    # tests' unfinished generators there: in a full-suite run, 232
    # ``OnOffSource.intervals`` frames once read 4.285 frames/session.
    gc.collect()
    sys.settrace(tracer)
    try:
        cell.fn(**cell.kwargs)
    except _Built:
        pass
    finally:
        sys.settrace(outer)
    (network,) = built
    assert len(network.sessions) == HEAVY_SESSIONS
    _print_opcodes("heavy_1e3 construct", "session", HEAVY_SESSIONS,
                   opcodes, calls)
    frames = sum(calls.values()) / HEAVY_SESSIONS
    total = sum(opcodes.values()) / HEAVY_SESSIONS
    frame_ceiling, opcode_ceiling = CONSTRUCT_PER_SESSION_CEILING
    assert frames <= frame_ceiling and total <= opcode_ceiling, (
        f"{frames:.3f} frames / {total:.1f} opcodes per session to build "
        f"the heavy_1e3 cell; the committed ceiling is {frame_ceiling} / "
        f"{opcode_ceiling}")


def test_kernel_spin_budget(monkeypatch):
    """What a wall-clock gate on the spin was for, made exact: an O(n)
    scan in the dispatch loop shows up as calls per event, a Python
    ``__init__`` or helper creeping into the per-event path as a frame
    that is none of ``tick`` / ``schedule`` / ``run`` / set-up."""
    monkeypatch.setattr(kernel, "_ckernel", None)  # the reference loop
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        events, _wall = kernel_spin(0.05)
    finally:
        profiler.disable()

    # 0.05 s of 0.1 ms ticks.
    assert events == 501
    # HEAD: 1008 calls, i.e. ``tick`` + ``schedule`` per event plus set-up.
    calls = _python_calls(profiler)
    assert calls / events <= 2.1, (
        f"{calls} Python calls for {events} spin events")
    # Scheduling builds the heap entry with ``list``'s own constructor
    # and dispatch calls straight into ``tick``: every other Python
    # frame (``run``, ``kernel_spin``, the constructors) is set-up and
    # runs once.
    repeated = {name: row[1] for (filename, _, name), row
                in pstats.Stats(profiler).stats.items()
                if filename != "~" and row[1] > 1}
    assert repeated == {"tick": events, "schedule": events}
