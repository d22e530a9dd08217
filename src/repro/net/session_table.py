"""Slot-indexed session state: one table row per admitted session.

Per session and per node Leave-in-Time keeps a handful of numbers —
``K_{i-1}`` and the affine ``d_i`` of eq. 10-11, plus the buffer
occupancy the buffer bound speaks about.  That is a table row, and
this module stores it as one: a :class:`SessionTable` hands every
admitted session one dense integer **slot**, and consumers — a node's
buffer accounting, a scheduler's deadline recursion — declare their
columns as a :class:`ColumnGroup` of stdlib :mod:`array` arrays indexed
by that slot.  Every :class:`~repro.net.network.Network` owns one
table; there is no other session-state store, and no slot -> session
list: the network's live and draining sessions are the registry.

* ``acquire`` gives a batch of sessions their slots, growing the table
  at most once; it hands out the most recently released slot before
  any fresh one (a LIFO list of released slots) and fresh slots lowest
  first, from a high-water mark, so the same admission sequence always
  produces the same slot assignment;
* ``release`` restores the slot to its fill value in *every* column of
  every group before recycling it — the one reset of a teardown, and
  what keeps drain accounting exact across slot reuse;
* growth extends each array **in place** to exactly the slots issued
  (``array`` over-allocates on its own), so a consumer may bind a
  column once and keep the reference.

``array('d')`` stores IEEE-754 doubles and hands them back as Python
floats, so the arithmetic on a row is the same float sequence a
per-session object would produce, at ~8 bytes a number instead of a
boxed float and a dict entry — which is what lets one node carry the
10^5 sessions of the heavy-traffic regime (``docs/heavy_traffic.md``).
"""

from __future__ import annotations

from array import array
from typing import Any, List, Sequence, Tuple, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.session import Session

__all__ = ["ColumnGroup", "SessionTable"]

#: Initial slot capacity, the floor of every table: small enough that
#: the paper-scale topologies allocate a few KB and never grow.
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
    """Slot bookkeeping: the released slots and a high-water mark.

    A session knows its own slot (``session.slot``) and the owning
    network knows its sessions by id, so the table keeps neither an id
    index nor a slot -> session list; per-concern state lives in
    consumer-owned :class:`ColumnGroup` instances created through
    :meth:`group`.  Slots at or above the high-water mark have never
    been issued; below it a slot is either live or released.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        if capacity < 1:
            raise SimulationError(
                f"session-table capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Released slots, reused LIFO before any fresh one —
        #: deterministic reuse.
        self._free: List[int] = []
        #: The lowest slot never issued; the fresh slots are
        #: ``range(_fresh, capacity)``.
        self._fresh = 0
        self.groups: List[ColumnGroup] = []

    def group(self) -> ColumnGroup:
        """A fresh column group sized and grown with this table."""
        return ColumnGroup(self)

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def acquire(self, sessions: Sequence["Session"]) -> None:
        """Give each of ``sessions``, in order, a slot (``session.slot``).

        The table grows at most once per call, to the capacity that
        acquiring them one at a time would have reached, and hands out
        the same slots in the same order.  A list or tuple is not
        copied unless released slots take its head.
        """
        free = self._free
        reused = min(len(free), len(sessions))
        for session in sessions[:reused]:
            session.slot = free.pop()
        tail = sessions[reused:] if reused else sessions
        start = self._fresh
        end = start + len(tail)
        if end > self.capacity:
            self._grow(end)
        for slot, session in enumerate(tail, start):
            session.slot = slot
        self._fresh = end

    def release(self, slot: int) -> None:
        """Free ``slot``, resetting it in every column.

        Call only once its session has fully drained (no packets in
        flight anywhere) — :meth:`repro.net.network.Network
        ._finalize_removal` calls it.  The reset is what guarantees a
        reused slot starts with zeroed buffer occupancy, drop counters,
        and deadline-recursion state.
        """
        if not 0 <= slot < self._fresh or slot in self._free:
            raise SimulationError(f"session-table slot {slot} is not live")
        for group in self.groups:
            for column, fill in group.columns:
                column[slot] = fill
        self._free.append(slot)

    def _grow(self, needed: int) -> None:
        """Extend every column in place to exactly ``needed`` slots."""
        extra = needed - self.capacity
        for group in self.groups:
            for column, fill in group.columns:
                column.extend(array(column.typecode, [fill]) * extra)
        self.capacity = needed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._fresh - len(self._free)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SessionTable {len(self)}/{self.capacity} "
                f"slots, {len(self.groups)} groups>")
