"""Property-based invariants of the slot-indexed session state.

The fixed-cell gates in ``tests/sim/test_state_backends.py`` pin three
known workloads against frozen digests; this suite generalises them:
*any* randomized mix of sessions — arbitrary rates, bursty or sparse
arrival traces, mid-run teardown (churn), and Bernoulli packet-loss
faults — must run clean under the ``Sanitizer`` (packet conservation,
per-session buffer balance, LiT label monotonicity: the laws a stale
or shared table row breaks) and leave the table consistent: live plus
free slots equal the capacity, a live row is the session whose ``slot``
it is (and the one the network knows by that id), and every free slot
holds ``None`` and reads its fill value in every column of every group.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify.sanitizer import Sanitizer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PacketLoss
from repro.net.network import Network
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.trace import Tracer
from tests.conftest import add_trace_session

#: (rate, arrival gaps, packet length, removal time or None)
SessionSpec = Tuple[float, List[float], float, Optional[float]]

_gaps = st.lists(
    st.floats(min_value=0.0, max_value=0.6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8)

_session_specs = st.lists(
    st.tuples(
        st.floats(min_value=50.0, max_value=400.0,
                  allow_nan=False, allow_infinity=False),
        _gaps,
        st.floats(min_value=100.0, max_value=400.0,
                  allow_nan=False, allow_infinity=False),
        st.one_of(st.none(),
                  st.floats(min_value=0.2, max_value=2.0,
                            allow_nan=False, allow_infinity=False)),
    ),
    min_size=1, max_size=4)

_loss_windows = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.1, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.05, max_value=0.9,
                  allow_nan=False, allow_infinity=False),
    ))


def _run_script(specs: List[SessionSpec],
                loss: Optional[Tuple[float, float, float]]) -> Network:
    """Run the script; ``Network.run`` raises on a sanitizer violation."""
    network = Network(seed=0, tracer=Tracer(False),
                      sanitizer=Sanitizer())
    network.add_node("n1", LeaveInTime(), capacity=1000.0)
    network.add_node("n2", LeaveInTime(), capacity=1000.0)
    removals = []
    for index, (rate, gaps, length, remove_at) in enumerate(specs):
        times, acc = [], 0.0
        for gap in gaps:
            acc += gap
            times.append(acc)
        sid = f"p{index}"
        _, _, source = add_trace_session(
            network, sid, rate=rate, times=times, lengths=length,
            route=["n1", "n2"])
        if remove_at is not None:
            removals.append((remove_at, sid, source))

    def _teardown(sid, source):
        # Production order (the call-churn driver's): silence the
        # source first, then drain-then-forget the session.
        source.stop()
        network.remove_session(sid)

    for remove_at, sid, source in removals:
        network.sim.schedule(
            remove_at,
            lambda s=sid, src=source: _teardown(s, src))
    injector = None
    if loss is not None:
        start, width, rate = loss
        plan = FaultPlan(losses=[PacketLoss("n1", start,
                                            start + width, rate)])
        injector = FaultInjector(plan).install(network)
    network.run(6.0)
    if injector is not None:
        injector.finalize(6.0)

    return network


@settings(max_examples=12, deadline=None)
@given(specs=_session_specs, loss=_loss_windows)
def test_random_scripts_keep_the_table_consistent(specs, loss):
    network = _run_script(specs, loss)
    table = network.session_table
    live = [slot for slot, session in enumerate(table.rows)
            if session is not None]
    released = table._free
    never_issued = range(table._fresh, table.capacity)
    assert (len(live) + len(released) + len(never_issued)
            == table.capacity == len(table.rows))
    assert len(set(released)) == len(released)
    assert all(slot < table._fresh for slot in released)
    for slot in live:
        session = table.rows[slot]
        assert session.slot == slot
        assert slot not in released and slot < table._fresh
        assert network.registered(session.id) is session
    # Never handed out here (<= 4 sessions, 64 rows): a late packet of a
    # drained session (slot -1) would land on it and fail the fill check.
    assert table.capacity - 1 in never_issued
    for slot in [*released, *never_issued]:
        assert table.rows[slot] is None
        for group in table.groups:
            for column, fill in group.columns:
                value = column[slot]  # a NaN fill equals nothing
                assert value == fill or (value != value and fill != fill)
