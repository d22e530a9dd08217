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

The same tracer also sees every Python ``__init__`` inside
``Network.run``: on the three data-plane cells each object built there
(today only ``Packet``) must be dict-free, since ``__slots__`` costs no
opcode and nothing else would notice it going.  ``call_churn`` is
exempt: its run builds per-call control-plane objects (sources,
tallies, bounds, samplers), about 0.03 per hop.

These ceilings are the only static per-hop cost gate: no analyzer
pattern-matches per-event cost.

Calls are those of ``benchmarks/ledger`` (``total.py_calls_per_pkt_hop``):
every profiled function that is not a C builtin.

``make hop-budget`` (``pytest -s`` on this file) prints, per cell, the
calls per hop, the opcodes per hop of the twelve heaviest functions and
the classes constructed: the table a per-hop change is sized with.

The heavy_1e3 cell's set-up has a row of its own, ``construct``: Python
frames entered and opcodes per session from ``_cell`` entry to
``Network.run`` — what registering one session costs (its
``Session()`` frame and a share of one ``add_sessions`` call), held to a
ceiling by the same rule and printed by ``make hop-budget`` after the
per-hop tables.

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
    call_churn.run(duration=3.0, seed=0, offered_erlangs=60.0,
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
#: call_churn read 31.485 while a removal's drop count looked each
#: node's slot up by id.  While nodes and schedulers held a sanitizer
#: of their own beside the tracer the four read 13.614 / 15.893 /
#: 16.514 / 31.114 (an ``is not None`` test is no call): the same, and
#: call_churn's ceiling sat at 31.5.  While admission summed its
#: members in Python generators call_churn read 31.228 late in a full
#: tier-1 run (earlier tests' state), its ceiling's reference; with
#: ``math.fsum`` over per-class dicts it reads 19.253 there.  While a
#: source ran ``_tick`` → ``next_length`` → ``_emit`` per packet and the
#: superposed clock re-armed through ``_arm``: 13.614 / 15.893 / 16.514 /
#: 19.140.  While a call's harvest read its sink through the ``sinks``
#: property, call_churn read 19.021 alone; through ``Network.sink`` it
#: reads 18.874 alone and 18.987 late in a full tier-1 run.
CALLS_PER_HOP_CEILING = {"plain": 12.7, "jitter": 15.0,
                         "heavy_1e3": 15.6, "call_churn": 19.0}

#: cell -> opcodes per packet-hop inside ``Network.run`` on CPython 3.11.
#: With a Welford tally per hop, a policy object per first packet and
#: ``randrange`` per marked pick: 809.0 / 960.7 / 1014.8 / 1086.9; with
#: ``network.faults`` read in the park condition and in ``_hold``:
#: 773.8 / 903.5 / 927.9 / 1053.1; while every transmission stored its
#: completion event for a crash-restart to cancel: 770.9 / 898.5 /
#: 924.9 / 1051.5; while a removal's drop count looked each node's slot
#: up by id, call_churn read 1050.5; while every node and scheduler
#: tested a sanitizer of its own beside the tracer (four sites a LiT
#: hop passes): 769.9 / 897.5 / 923.9 / 1049.6; while admission summed
#: its members in Python generators, call_churn read 1021.3; while a
#: source ran ``_tick`` → ``next_length`` → ``_emit`` per packet (with a
#: shaper test) and a ``TimeSeries`` tested its bound per sample:
#: 747.6 / 875.0 / 901.4 / 870.9; while every sink delivery tested a
#: warm-up instant: plain 732.6, jitter 859.8, heavy_1e3 892.4,
#: call_churn 866.7; while a sink delivery looked its sink up in an
#: id -> sink dict: 730.1 / 857.4 / 887.4 / 865.6.
OPCODES_PER_HOP_CEILING = {"plain": 730, "jitter": 857,
                           "heavy_1e3": 886, "call_churn": 866}

#: heavy_1e3 set-up, from ``_cell`` entry to ``Network.run``: (Python
#: frames entered, opcodes) per session on CPython 3.11.  While each
#: session was one ``add_session`` call (``add_session``, ``acquire``,
#: ``register_session`` frames and an id -> slot dict): 4.05 / 262.4.
#: One ``add_sessions`` call read 1.053 / 170.01 alone while ``_cell``
#: built its sessions in a list comprehension, the sinks went into an
#: id -> sink dict and ``acquire`` popped every slot off a free list.
#: Built by ``map`` over a ``partial`` and handed over as one tuple,
#: the sink set on each session in the check loop and fresh slots
#: assigned by one slice: 1.055 / 152.0 alone and a few hundredths more
#: after the rest of the suite (frames that run once).
CONSTRUCT_PER_SESSION_CEILING = (1.1, 153)


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
    """A ``sys.settrace`` function, its per-function (opcodes, frames
    entered) counters and the classes whose ``__init__`` it entered."""
    opcodes, calls, built = Counter(), Counter(), set()

    def tracer(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = True
            code = frame.f_code
            calls[code.co_qualname] += 1
            if code.co_name == "__init__":
                built.add(type(frame.f_locals[code.co_varnames[0]]))
        elif event == "opcode":
            opcodes[frame.f_code.co_qualname] += 1
        return tracer

    return tracer, opcodes, calls, built


def _print_opcodes(label, unit, per, opcodes, calls):
    """The table ``make hop-budget`` shows: twelve heaviest functions."""
    print(f"\n{label}: {sum(opcodes.values()) / per:.1f} opcodes per "
          f"{unit}, {sum(calls.values()) / per:.3f} frames entered")
    for name, count in opcodes.most_common(12):
        print(f"  {name:<44}{count / per:8.1f}"
              f"{calls[name] / per:8.3f} calls")


needs_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the ceilings count CPython 3.11's bytecode; they are the "
           "only static per-hop cost gate, run on the 3.11 leg of CI's "
           "tests matrix")

#: Cells whose ``Network.run`` may build only dict-free objects.
DATA_PLANE = ("plain", "jitter", "heavy_1e3")


@needs_311
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_hop_path_opcodes(cell, monkeypatch):
    tracer, opcodes, calls, built = _opcode_tracer()
    outer = sys.gettrace()  # coverage's, under ``--cov``: hand it back
    hops = _run_cell(cell, monkeypatch, lambda: sys.settrace(tracer),
                     lambda: sys.settrace(outer))
    total = sum(opcodes.values())
    _print_opcodes(cell, "packet-hop", hops, opcodes, calls)
    print(f"  constructed: "
          f"{', '.join(sorted(cls.__qualname__ for cls in built))}")
    ceiling = OPCODES_PER_HOP_CEILING[cell]
    assert total / hops <= ceiling, (
        f"{total / hops:.1f} opcodes per packet-hop in the {cell} cell; "
        f"the committed ceiling is {ceiling}")
    if cell in DATA_PLANE:
        with_dict = sorted(cls.__qualname__ for cls in built
                           if cls.__dictoffset__)
        assert not with_dict, (
            f"{with_dict} built inside Network.run of the {cell} cell "
            f"carry a __dict__; give them __slots__")


class _Built(Exception):
    """Raised where ``Network.run`` would start: set-up is over."""


@needs_311
def test_construct_budget(monkeypatch):
    """What registering one session costs, from ``_cell`` entry to
    ``Network.run`` on the heavy_1e3 cell: 10^3 ``Session()`` frames,
    one ``add_sessions`` call for all of them and the cell's own
    set-up, per session."""
    tracer, opcodes, calls, _ = _opcode_tracer()
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
    # One registration call for the population, none per session.
    assert calls["Network.add_sessions"] == 1
    assert calls["Network.add_session"] == 0
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
