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

Calls are every profiled function that is not a C builtin, counted per
code object — what ``benchmarks/ledger``'s ``total.py_calls_per_pkt_hop``
counts, except that its ``pstats`` keys merge same-named functions
compiled from one ``<string>`` line (dataclass ``__init__``s).

``make hop-budget`` (``pytest -s`` on this file) prints, per cell, the
calls per hop, the opcodes per hop of the twelve heaviest functions and
the classes constructed: the table a per-hop change is sized with.

The heavy_1e3 cell's set-up has a row of its own, ``construct``: Python
frames entered and opcodes per session from ``_cell`` entry to
``Network.run`` — what registering one session costs (its share of
one ``Session.population`` and one ``add_sessions`` call), held to a
ceiling by the same rule and printed by ``make hop-budget`` after the
per-hop tables.

A call's control plane has a row of its own too, ``control plane``:
on the paper network with 47 ``call_churn`` calls admitted, the frames
entered and opcodes of one more call's admit + release, and of its
``compute_session_bounds`` — the per-call work beside ``call_churn``'s
hops, held to ceilings and printed by ``make hop-budget``.

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

from repro.admission.classes import DelayClass
from repro.admission.controller import AdmissionController
from repro.admission.procedure1 import Procedure1
from repro.analysis.throughput import kernel_spin
from repro.bounds.delay import compute_session_bounds
from repro.experiments import call_churn, heavy_traffic
from repro.experiments.common import (FIVE_HOP, build_mix_network,
                                      mix_specs)
from repro.net.network import Network
from repro.net.session import Session
from repro.net.topology import build_paper_network
from repro.sched.leave_in_time import LeaveInTime
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
    """Calls of every profiled function that is not a C builtin.

    Counted per code object (a builtin's ``code`` is its name): keyed
    by ``(file, line, name)``, as ``pstats`` keys them, the dataclass
    ``__init__``s compiled from ``<string>`` line 2 collapse into one
    entry, and which one survives depends on memory layout.
    """
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str))


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
#: read 18.874 alone and 18.987 late in a full tier-1 run.  Those
#: call_churn readings summed ``pstats`` rows keyed by (file, line,
#: name), where its three dataclass ``__init__``s (``<string>`` line 2)
#: collapse into one and which survives depends on memory layout;
#: counted per code object the same tree reads 19.048, the opcode
#: tracer's frames entered, and the ceiling moved from 19.0 with the
#: count, not the path (plain, jitter and heavy_1e3 read the same).
#: While each deadline discipline kept a queue object whose ``pop`` sat
#: behind ``next_packet`` and whose ``push`` sat behind the scheduler's
#: own: 12.644 / 14.910 / 15.514 / 19.048.  Jitter still enters LiT's
#: ``_release`` frame per held packet (the ledger's ``sched.held_share``
#: counts it).  While a call's admission summed each node's admitted set
#: twice, built and installed a ``DelayPolicy`` per node and its bounds
#: walked the route once per helper (``test_control_plane_budget``),
#: call_churn read 17.229 under a 17.3 ceiling.
CALLS_PER_HOP_CEILING = {"plain": 11.7, "jitter": 13.9,
                         "heavy_1e3": 14.5, "call_churn": 14.9}

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
#: id -> sink dict: 730.1 / 857.4 / 887.4 / 865.6; while every arrival
#: read a dense ``limit`` column (no experiment sets a limit) and a
#: release cleared a slot -> session row: 729.1 / 856.4 / 885.3 / 865.4;
#: while a queue object's ``push`` / ``pop`` sat behind the scheduler's
#: own frames: 723.1 / 850.3 / 879.3 / 856.0; while every ``Packet``
#: stored an ``extra`` header dict slot that no discipline read: 718.0
#: / 845.1 / 874.0 / 849.1; while every sink delivery tested a kept
#: packet list that only tests asked for: 716.5 / 843.6 / 871.0 / 848.0;
#: while ``schedule`` built each event as ``Event((...))``, a ``list``
#: subclass, from a temporary tuple: 715.1 / 842.2 / 868.0 / 847.2;
#: while a call paid its admission twice over (see the calls ceiling):
#: call_churn 840.9 under an 841 ceiling.
OPCODES_PER_HOP_CEILING = {"plain": 711, "jitter": 838,
                           "heavy_1e3": 863, "call_churn": 801}

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
#: after the rest of the suite (frames that run once).  While the table
#: kept a slot -> session row list and each node wrote a ``member``
#: flag per session: 1.055 / 152.0.  While each session was its own
#: ``Session()`` call (a frame and 93 opcodes of checks): 1.051 / 144.8.
CONSTRUCT_PER_SESSION_CEILING = (0.06, 108)


#: One call's control plane on the paper network with 47 ``call_churn``
#: calls admitted: (Python frames entered, opcodes) on CPython 3.11.
#: While eq. 18 and rule (1.1) each summed a node's admitted set, each
#: node minted a fresh ``DelayPolicy`` per call and the controller
#: installed it through ``set_policy`` (which re-checks the route):
#: admit + release 88 / 2301.  While ``compute_session_bounds`` walked
#: the route once per helper (10 ``delta_max``, 5 ``policy_for``):
#: bounds 48 / 1322.
CONTROL_PLANE_CEILING = {"admit + release": (24, 1249),
                         "bounds": (27, 925)}


def _run_cell(cell, monkeypatch, watch, unwatch):
    """Run ``cell`` with ``watch()`` / ``unwatch()`` around its one
    ``Network.run``; check the cell did the committed work and return
    its packet-hops."""
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
    ``Network.run`` on the heavy_1e3 cell: one ``Session.population``
    call and one ``add_sessions`` call for all 10^3 sessions and the
    cell's own set-up, per session."""
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
    # One declaration check for the population, none per session.
    assert calls["Session.population"] == 1
    assert calls["Session.__init__"] == 1
    frames = sum(calls.values()) / HEAVY_SESSIONS
    total = sum(opcodes.values()) / HEAVY_SESSIONS
    frame_ceiling, opcode_ceiling = CONSTRUCT_PER_SESSION_CEILING
    assert frames <= frame_ceiling and total <= opcode_ceiling, (
        f"{frames:.3f} frames / {total:.1f} opcodes per session to build "
        f"the heavy_1e3 cell; the committed ceiling is {frame_ceiling} / "
        f"{opcode_ceiling}")


def _paper_calls(admitted):
    """The paper network guarded as ``call_churn`` guards it, with
    ``admitted`` of its calls admitted and registered, and one call
    more, not yet admitted."""
    network = build_paper_network(LeaveInTime, seed=0)
    controller = AdmissionController(
        network, lambda node: Procedure1(
            node.link.capacity,
            [DelayClass(node.link.capacity, ms(13.25))]))
    calls = [Session(f"call-{index}", rate=call_churn.RATE,
                     route=FIVE_HOP, l_max=call_churn.PACKET,
                     token_bucket=(call_churn.RATE, call_churn.PACKET))
             for index in range(admitted + 1)]
    for session in calls[:-1]:
        controller.admit(session, class_number=1)
        network.add_session(session, keep_samples=False)
    return network, controller, calls[-1]


@needs_311
def test_control_plane_budget():
    """What ``call_churn`` pays per call beside its hops: one admit +
    release of the 48th call over five hops, and its guarantee."""
    network, controller, session = _paper_calls(call_churn.TRUNKS - 1)
    outer = sys.gettrace()
    gc.collect()
    admit_release = _opcode_tracer()
    sys.settrace(admit_release[0])
    try:
        controller.admit(session, class_number=1)
        controller.release(session)
    finally:
        sys.settrace(outer)
    controller.admit(session, class_number=1)
    network.add_session(session, keep_samples=False)
    bounds = _opcode_tracer()
    sys.settrace(bounds[0])
    try:
        compute_session_bounds(network, session)
    finally:
        sys.settrace(outer)
    for label, (_, opcodes, calls, _) in (
            ("admit + release", admit_release), ("bounds", bounds)):
        _print_opcodes(f"control plane {label}", "call", 1, opcodes,
                       calls)
        frames, total = sum(calls.values()), sum(opcodes.values())
        frame_ceiling, opcode_ceiling = CONTROL_PLANE_CEILING[label]
        assert frames <= frame_ceiling and total <= opcode_ceiling, (
            f"{frames} frames / {total} opcodes per call for {label}; "
            f"the committed ceiling is {frame_ceiling} / "
            f"{opcode_ceiling}")


def test_kernel_spin_budget():
    """What a wall-clock gate on the spin was for, made exact: an O(n)
    scan in the dispatch loop shows up as calls per event, a Python
    ``__init__`` or helper creeping into the per-event path as a frame
    that is none of ``tick`` / ``schedule`` / ``run`` / set-up."""
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
