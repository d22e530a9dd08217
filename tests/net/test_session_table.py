"""Unit tests for the slot-indexed session table.

Behavioural gates: ``tests/sim/test_state_backends.py``.  Here, the
table's own contract: lowest fresh slot first, LIFO reuse, a batch grows
the table once to the slots one-at-a-time acquisition hands out, release
resets every column of every group, growth extends the arrays in place.
"""

from math import inf

import pytest

from repro.errors import SimulationError
from repro.net.session import Session
from repro.net.session_table import SessionTable


def _session(sid: str, rate: float = 100.0) -> Session:
    return Session(sid, rate=rate, route=["n1"], l_max=500.0)


def test_acquire_hands_out_lowest_fresh_slot_first():
    table = SessionTable(capacity=4)
    sessions = [_session(f"s{i}") for i in range(3)]
    table.acquire(sessions)
    assert [session.slot for session in sessions] == [0, 1, 2]


def test_acquire_grows_once_to_what_one_at_a_time_reaches():
    # Two sessions at a time first, then a batch past two doublings.
    one, batch = SessionTable(capacity=2), SessionTable(capacity=2)
    for table in (one, batch):
        table.acquire([_session("a"), _session("b")])
        table.release(0)
    singles = [_session(f"s{i}") for i in range(7)]
    for session in singles:
        one.acquire([session])
    together = [_session(f"s{i}") for i in range(7)]
    batch.acquire(together)
    assert [s.slot for s in together] == [s.slot for s in singles] \
        == [0, 2, 3, 4, 5, 6, 7]
    assert batch.capacity == one.capacity == 8
    # Every slot is live: none released, none left to issue.
    assert batch._free == one._free == []
    assert len(batch) == len(one) == 8


def test_release_then_acquire_reuses_lifo():
    table = SessionTable(capacity=8)
    table.acquire([_session(f"s{i}") for i in range(4)])
    table.release(1)
    table.release(3)
    # Most recently released first (LIFO), then fresh slots.
    fresh = [_session("a"), _session("b"), _session("c")]
    table.acquire(fresh)
    assert [session.slot for session in fresh] == [3, 1, 4]


def test_rows_hold_the_live_sessions():
    table = SessionTable(capacity=2)
    first, second = _session("s"), _session("t")
    table.acquire([first, second])
    assert table.rows == [first, second] and len(table) == 2
    table.release(0)
    assert table.rows == [None, second] and len(table) == 1
    assert list(table.items()) == [(1, second)]
    with pytest.raises(SimulationError, match="not live"):
        table.release(0)


def test_release_resets_every_attached_group():
    table = SessionTable(capacity=2)
    first, second = table.group(), table.group()
    k_prev = first.add("k_prev", -inf)
    member = first.add("member", False)
    drops = second.add("drops", 0)
    session = _session("s")
    table.acquire([session])
    slot = session.slot
    k_prev[slot], member[slot], drops[slot] = 7.5, True, 3
    table.release(slot)
    assert (k_prev[slot], member[slot], drops[slot]) == (-inf, 0, 0)
    assert first.k_prev is k_prev and second.drops is drops


def test_growth_preserves_slot_contents():
    table = SessionTable(capacity=2)
    group = table.group()
    value = group.add("value", inf)
    flag = group.add("flag", False)
    table.acquire([_session("s0")])
    value[0], flag[0] = 42.0, True
    for i in range(1, 10):  # forces three doublings past capacity 2
        table.acquire([_session(f"s{i}")])
    assert table.capacity >= 10
    assert len(value) == len(flag) == len(table.rows) == table.capacity
    # Grown in place: the references taken before still are the columns.
    assert group.value is value and group.flag is flag
    assert (value[0], flag[0]) == (42.0, 1)
    assert (value[9], flag[9]) == (inf, 0)  # fresh slots hold the fill


def test_duplicate_column_name_rejected():
    table = SessionTable(capacity=2)
    group = table.group()
    group.add("bits", 0.0)
    with pytest.raises(SimulationError, match="duplicate"):
        group.add("bits", 0.0)


def test_reserved_attribute_name_rejected():
    table = SessionTable(capacity=2)
    group = table.group()
    with pytest.raises(SimulationError, match="duplicate"):
        group.add("columns", 0.0)
