"""Slot-indexed session state: one table row per admitted session.

Per session and per node Leave-in-Time keeps a handful of numbers —
``K_{i-1}`` and the affine ``d_i`` of eq. 10-11, plus the buffer
occupancy the buffer bound speaks about.  That is a table row, and
this module stores it as one: a :class:`SessionTable` hands every
admitted session one dense integer **slot**, and consumers — a node's
buffer accounting, a scheduler's deadline recursion — declare their
columns as a :class:`ColumnGroup` of stdlib :mod:`array` arrays indexed
by that slot.  Every :class:`~repro.net.network.Network` owns one
table; there is no other session-state store.

* ``acquire`` hands out the lowest fresh slot first and the most
  recently released slot before any fresh one (LIFO free list), so the
  same admission sequence always produces the same slot assignment;
* ``release`` restores the slot to its fill value in *every* column of
  every group before recycling it — the one reset of a teardown, and
  what keeps drain accounting exact across slot reuse;
* growth doubles capacity by extending each array **in place**, so a
  consumer may bind a column once and keep the reference.

``array('d')`` stores IEEE-754 doubles and hands them back as Python
floats, so the arithmetic on a row is the same float sequence a
per-session object would produce, at ~8 bytes a number instead of a
boxed float and a dict entry — which is what lets one node carry the
10^5 sessions of the heavy-traffic regime (``docs/heavy_traffic.md``).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple, \
    TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.session import Session

__all__ = ["ColumnGroup", "SessionTable"]

#: Initial slot capacity; doubled on demand.  Small enough that the
#: paper-scale topologies allocate a few KB, large enough that the
#: heavy-traffic runs reach 10^5 slots in ~11 doublings.
_INITIAL_CAPACITY = 64

#: Column storage by the type of its fill value.
_TYPECODES = {float: "d", int: "q", bool: "b"}


class ColumnGroup:
    """Parallel arrays owned by one consumer, indexed by table slots.

    A consumer (a node, a scheduler) calls :meth:`add` once per column
    when it attaches; the arrays become attributes of the group
    (``group.bits``, ``group.k_prev``, ...).  The owning table grows
    every column in place and resets a slot in every column when it is
    released, so a recycled slot always starts from the fill values.
    """

    def __init__(self, table: "SessionTable") -> None:
        self._table = table
        #: (array, fill value) per column, in declaration order.
        self.columns: List[Tuple[array, Any]] = []
        table.groups.append(self)

    def add(self, name: str, fill: Any) -> array:
        """Declare a column holding ``fill`` in every slot; returns it.

        The fill's type picks the storage: float -> ``'d'``, int ->
        ``'q'``, bool -> ``'b'`` (read back as 0/1).
        """
        if hasattr(self, name):
            raise SimulationError(
                f"duplicate session-table column {name!r}")
        column = array(_TYPECODES[type(fill)],
                       [fill]) * self._table.capacity
        self.columns.append((column, fill))
        setattr(self, name, column)
        return column


class SessionTable:
    """Dense-id registry mapping session ids to array slots.

    The table owns the id <-> slot mapping; per-concern state lives in
    consumer-owned :class:`ColumnGroup` instances created through
    :meth:`group`.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        if capacity < 1:
            raise SimulationError(
                f"session-table capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Session id -> slot, in acquisition (insertion) order; the
        #: nodes' read-only views iterate this, so their dicts list
        #: sessions in the order they were admitted.
        self.slot_of: Dict[str, int] = {}
        #: Slot -> session id (None while free).
        self.ids: List[Optional[str]] = [None] * capacity
        #: LIFO free list, stored so ``pop()`` yields the lowest fresh
        #: slot first and the most recently released slot before any
        #: fresh one — deterministic reuse.
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self.groups: List[ColumnGroup] = []

    def group(self) -> ColumnGroup:
        """A fresh column group sized and grown with this table."""
        return ColumnGroup(self)

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def acquire(self, session: "Session") -> int:
        """Assign (or return) the slot for ``session``; idempotent per id."""
        session_id = session.id
        slot_of = self.slot_of
        if session_id in slot_of:
            return slot_of[session_id]
        if not self._free:
            self._grow()
        slot = self._free.pop()
        slot_of[session_id] = slot
        self.ids[slot] = session_id
        return slot

    def slot(self, session_id: str) -> int:
        """Slot of ``session_id``, or ``-1`` when not in the table."""
        return self.slot_of.get(session_id, -1)

    def release(self, session_id: str) -> None:
        """Free a session's slot, resetting it in every column.

        Call only once the session has fully drained (no packets in
        flight anywhere) — :meth:`repro.net.network.Network
        ._finalize_removal` and ``add_session``'s rollback call it.  The reset
        is what guarantees a reused slot starts with zeroed buffer
        occupancy, drop counters, and deadline-recursion state.
        """
        slot = self.slot_of.pop(session_id, None)
        if slot is None:
            return
        self.ids[slot] = None
        for group in self.groups:
            for column, fill in group.columns:
                column[slot] = fill
        self._free.append(slot)

    def _grow(self) -> None:
        extra = self.capacity
        for group in self.groups:
            for column, fill in group.columns:
                column.extend(array(column.typecode, [fill]) * extra)
        self.ids.extend([None] * extra)
        self._free.extend(
            range(self.capacity + extra - 1, self.capacity - 1, -1))
        self.capacity += extra

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.slot_of)

    def items(self) -> Iterator[Tuple[str, int]]:
        """(session id, slot) pairs in acquisition order."""
        return iter(self.slot_of.items())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SessionTable {len(self.slot_of)}/{self.capacity} "
                f"slots, {len(self.groups)} groups>")
