"""Unit tests for the slot-indexed session table.

Behavioural gates: ``tests/sim/test_state_backends.py``.  Here, the
table's own contract: lowest fresh slot first, LIFO reuse, release resets
every column of every group, growth extends the arrays in place.
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
    slots = [table.acquire(_session(f"s{i}")) for i in range(3)]
    assert slots == [0, 1, 2]


def test_acquire_is_idempotent_per_id():
    table = SessionTable(capacity=4)
    session = _session("s")
    assert table.acquire(session) == table.acquire(session) == 0
    assert len(table) == 1


def test_release_then_acquire_reuses_lifo():
    table = SessionTable(capacity=8)
    for i in range(4):
        table.acquire(_session(f"s{i}"))
    table.release("s1")
    table.release("s3")
    # Most recently released first (LIFO), then fresh slots.
    assert table.acquire(_session("a")) == 3
    assert table.acquire(_session("b")) == 1
    assert table.acquire(_session("c")) == 4


def test_slot_lookup_returns_minus_one_for_unknown():
    table = SessionTable(capacity=2)
    table.acquire(_session("s"))
    assert table.slot("s") == 0
    assert table.slot("ghost") == -1
    table.release("s")
    assert table.slot("s") == -1


def test_release_resets_every_attached_group():
    table = SessionTable(capacity=2)
    first, second = table.group(), table.group()
    k_prev = first.add("k_prev", -inf)
    member = first.add("member", False)
    drops = second.add("drops", 0)
    slot = table.acquire(_session("s"))
    k_prev[slot], member[slot], drops[slot] = 7.5, True, 3
    table.release("s")
    assert (k_prev[slot], member[slot], drops[slot]) == (-inf, 0, 0)
    assert first.k_prev is k_prev and second.drops is drops


def test_growth_preserves_slot_contents():
    table = SessionTable(capacity=2)
    group = table.group()
    value = group.add("value", inf)
    flag = group.add("flag", False)
    first = table.acquire(_session("s0"))
    value[first], flag[first] = 42.0, True
    for i in range(1, 10):  # forces two doublings past capacity 2
        table.acquire(_session(f"s{i}"))
    assert table.capacity >= 10
    assert len(value) == len(flag) == table.capacity
    # Grown in place: the references taken before still are the columns.
    assert group.value is value and group.flag is flag
    assert (value[first], flag[first]) == (42.0, 1)
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
