"""Golden gates for the slot-indexed session state.

Until PR 14 a per-session-object store produced the same digests as the
:class:`~repro.net.session_table.SessionTable`; they are frozen here,
next to the Figure-7 goldens of ``test_dispatch_digest.py``: the Fig. 7
MIX cell (tracing off and on), a call-churn cell (admission, teardown,
slot reuse) and fault-sweep cells, clean and faulted.  Plus the
regression a table is most likely to break: slot recycling must hand a
*zeroed* slot to the next admission.  The randomized generalisation is
``tests/properties/test_state_backend_properties.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import call_churn, fault_sweep
from repro.sched.leave_in_time import LeaveInTime
from tests.conftest import add_trace_session, make_network
from tests.sim.test_dispatch_digest import (
    FIG07_CELL_EVENTS,
    FIG07_CELL_OBSERVABLES_TRACE_OFF,
    FIG07_CELL_TRACE,
    fig07_cell,
)
from tests.sim.test_observable_digest import observe

#: Observables digests, recorded at 019d85f with the event count left
#: out of the hash: they never move.  (With the count hashed in, the
#: cells read b75f1a6d… / 62545ef5… / 709c99c5… from PR 13, where the
#: per-session-object store and the table both produced them, until
#: decision-epoch forwarding changed the counts.)
CHURN_CELL_OBSERVABLES = \
    "11436150bd98bbe9ac9d0afae1c02d6b1506dd30961fc322e51b588405b78c5c"
FAULT_CELL_OBSERVABLES = {
    0.0: "09aeebdb53b8b82066bda8589a17909ffce5bf9e76ce93e9e00c0a665df6b624",
    1.0: "7ad5b3825b39afc27e56b550a82446186621faf3caba565bc0771678a5055693",
}
#: Events dispatched.  The churn cell took 23146, the clean fault cell
#: 519703 and the faulted one 488420 while every arrival was a kernel
#: event (the faulted cell until PR 24: an armed plan kept that path).
CHURN_CELL_EVENTS = 21064
FAULT_CELL_EVENTS = {0.0: 322913, 1.0: 299939}


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def churn_cell():
    """``(observables digest, events)`` of a short call-churn cell."""
    ((network,), _), result = observe(lambda: call_churn.run(
        duration=8.0, seed=0, offered_erlangs=12.0, mean_holding=2.0))
    return (_digest([repr(call) for call in result.calls]),
            network.sim.events_dispatched)


def fault_cell(outage: float):
    """``(observables digest, events)`` of a short fault-sweep cell."""
    ((network,), _), row = observe(lambda: fault_sweep._cell(
        discipline="leave-in-time", outage=outage, duration=6.0, seed=0))
    return _digest([repr(row)]), network.sim.events_dispatched


@pytest.mark.parametrize("trace_on", [False, True])
def test_fig07_cell_digest_matches_golden_under_soa(
        monkeypatch, trace_on):
    # The retired selector must be ignored, not obeyed or rejected.
    monkeypatch.setenv("REPRO_STATE_BACKEND", "objects")
    assert fig07_cell(trace_on=trace_on) == (
        FIG07_CELL_OBSERVABLES_TRACE_OFF, FIG07_CELL_EVENTS,
        FIG07_CELL_TRACE if trace_on else None)


def test_call_churn_cell_digest_matches_golden():
    assert churn_cell() == (CHURN_CELL_OBSERVABLES, CHURN_CELL_EVENTS)


@pytest.mark.parametrize("outage", [0.0, 1.0],
                         ids=["clean", "faulted"])
def test_fault_sweep_cell_digest_matches_golden(outage):
    assert fault_cell(outage) == (FAULT_CELL_OBSERVABLES[outage],
                                  FAULT_CELL_EVENTS[outage])


# ----------------------------------------------------------------------
# Slot reuse after teardown
# ----------------------------------------------------------------------
def test_forget_session_recycles_a_zeroed_slot():
    """A reused slot must start from fill values, not stale state."""
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    session_a, _, _ = add_trace_session(
        network, "a", rate=100.0, times=[0.0, 0.1, 0.2], lengths=100.0,
        route=["n1", "n2"])
    add_trace_session(network, "b", rate=100.0,
                      times=[0.05, 0.15], lengths=100.0,
                      route=["n1", "n2"])
    network.run(5.0)
    table = network.session_table
    slot_a = session_a.slot
    network.remove_session("a")
    assert session_a.slot == -1 and slot_a in table._free
    # LIFO reuse: the next admission takes a's slot back.
    session_c, sink_c, _ = add_trace_session(
        network, "c", rate=100.0, times=[0.0, 0.1], lengths=100.0,
        route=["n1", "n2"])
    assert session_c.slot == slot_a
    # The recycled slot starts clean: zero buffered bits, zero drops,
    # and the deadline recursion restarts from c's first arrival.
    node = network.node("n1")
    assert node.buffer_bits.get("c", 0.0) == 0.0
    network.run(10.0)
    assert sink_c.received == 2
    assert node.buffer_bits["c"] == 0.0
    assert node.drop_count("c") == 0
    # b was untouched by a's teardown and c's admission.
    assert network.sink("b").received == 2


def test_drain_accounting_survives_mid_flight_removal():
    """Drain-then-forget keeps array accounting exact."""
    network = make_network(LeaveInTime, capacity=1.0)
    session, sink, _ = add_trace_session(network, "s", rate=1.0,
                                         times=[0.0], lengths=10.0)
    network.run(5.0)  # the 10 s packet is still on the wire
    network.remove_session("s")
    slot = session.slot
    assert slot >= 0  # draining, not freed
    assert slot not in network.session_table._free
    assert network.registered("s") is session
    network.run(20.0)
    assert sink.received == 1
    assert session.slot == -1 and slot in network.session_table._free
    assert "s" not in network.node("n1").buffer_bits
