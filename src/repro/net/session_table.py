"""Struct-of-arrays session hot state: the ``soa`` backend.

The objects backend keeps one small Python object (plus a dict entry)
per session *per concern*: a ``_SessionBuffer`` at every node on the
route, a ``_SessionState`` in every Leave-in-Time scheduler, a cached
local bound in every EDD scheduler.  At the paper's scale (48-116
sessions) that is invisible; at the heavy-traffic scale the theory
papers talk about (10^5-10^6 concurrent sessions on one node,
``docs/heavy_traffic.md``) the per-object headers, boxed floats, and
dict probes dominate both memory and time.

This module replaces those objects with a :class:`SessionTable`: one
dense integer **slot** per admitted session, and parallel numpy arrays
(struct-of-arrays) indexed by that slot.  Consumers — the node's buffer
accounting, each scheduler's deadline-recursion state — allocate their
columns as a :class:`ColumnGroup` attached to the table, so every array
grows and recycles slots in lockstep:

* ``acquire`` hands out the lowest free slot (LIFO free list, so reuse
  after teardown is deterministic — the same admission sequence always
  produces the same slot assignment);
* ``release`` resets the slot in *every* attached group back to its
  fill value before recycling it, which is what keeps
  ``forget_session``/drain accounting exact across slot reuse;
* growth doubles capacity and preserves slot contents, with consumers
  reading arrays through their group attributes (never through stale
  references).

Bit-identity with the objects backend is a hard requirement (the
dispatch-digest gates of ``tests/sim/test_state_backends.py``): hot
paths read scalars out of the arrays with ``ndarray.item`` and do the
arithmetic in Python floats — the exact IEEE-754 operations the objects
path performs — and store results back into float64 slots, which is
lossless.

numpy is an optional dependency (the ``[scale]`` extra): importing this
module without it leaves :data:`numpy_available` false and
``state_backend="soa"`` raises a clear
:class:`~repro.errors.SimulationError`; the objects backend never
touches this module.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple, \
    TYPE_CHECKING

from repro.errors import SimulationError
from repro import optdeps

#: The guarded numpy binding; the numpy-missing tests set it to None.
_np = optdeps.np

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.session import Session

__all__ = ["ColumnGroup", "SessionTable", "numpy_available",
           "require_numpy"]

#: Initial slot capacity; doubled on demand.  Small enough that the
#: paper-scale topologies allocate a few KB, large enough that the
#: heavy-traffic runs reach 10^5 slots in ~11 doublings.
_INITIAL_CAPACITY = 64


def numpy_available() -> bool:
    """Whether the optional ``[scale]`` extra (numpy) is importable."""
    return _np is not None and optdeps.numpy_available()


def require_numpy() -> Any:
    """Return the real numpy module or raise the backend-selection error."""
    numpy = optdeps.load_numpy() if _np is not None else None
    if numpy is None:
        raise SimulationError(
            "state_backend='soa' requires numpy, which is not "
            "installed; install the optional extra "
            "(pip install 'repro[scale]') or use "
            "state_backend='objects'")
    return numpy


class ColumnGroup:
    """Parallel arrays owned by one consumer, indexed by table slots.

    A consumer (a node, a scheduler) calls :meth:`add` once per column
    at attach time; the arrays become attributes of the group
    (``group.bits``, ``group.k_prev``, ...).  The owning table grows
    every group together and resets a slot in every group when it is
    released, so a recycled slot always starts from the fill values.
    """

    def __init__(self, table: "SessionTable") -> None:
        self._table = table
        #: Column name -> (dtype, fill value), in declaration order.
        self._columns: Dict[str, Tuple[str, Any]] = {}
        table._attach(self)

    def add(self, name: str, fill: Any, dtype: str = "f8") -> Any:
        """Declare a column; returns the backing array."""
        if name in self._columns or hasattr(self, name):
            raise SimulationError(
                f"duplicate session-table column {name!r}")
        array = self._table._np.full(self._table.capacity, fill,
                                     dtype=dtype)
        self._columns[name] = (dtype, fill)
        setattr(self, name, array)
        return array

    def reset_slot(self, slot: int) -> None:
        """Restore every column of ``slot`` to its fill value."""
        for name, (_, fill) in self._columns.items():
            getattr(self, name)[slot] = fill

    def _grow(self, new_capacity: int) -> None:
        np = self._table._np
        for name, (dtype, fill) in self._columns.items():
            old = getattr(self, name)
            fresh = np.full(new_capacity, fill, dtype=dtype)
            fresh[:old.shape[0]] = old
            setattr(self, name, fresh)


class SessionTable:
    """Dense-id registry mapping session ids to array slots.

    The table owns the id <-> slot mapping and the session-level
    columns every consumer shares (reserved rate, packet-length bounds,
    jitter flag — copied from the :class:`~repro.net.session.Session`
    at :meth:`acquire` so hot paths never chase the Python object).
    Per-concern state lives in consumer-owned :class:`ColumnGroup`
    instances created through :meth:`group`.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._np = require_numpy()
        if capacity < 1:
            raise SimulationError(
                f"session-table capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Session id -> slot, in acquisition (insertion) order; view
        #: properties iterate this, so their dicts list sessions in the
        #: order they were admitted, matching the objects backend.
        self.slot_of: Dict[str, int] = {}
        #: Slot -> session id (None while free).
        self.ids: List[Optional[str]] = [None] * capacity
        #: LIFO free list, stored so ``pop()`` yields the lowest fresh
        #: slot first and the most recently released slot before any
        #: fresh one — deterministic reuse.
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._groups: List[ColumnGroup] = []
        core = ColumnGroup(self)
        core.add("rate", 0.0)
        core.add("l_max", 0.0)
        core.add("l_min", 0.0)
        core.add("jitter", False, dtype="bool")
        self.core = core

    # ------------------------------------------------------------------
    # Consumer attachment
    # ------------------------------------------------------------------
    def group(self) -> ColumnGroup:
        """A fresh column group sized and grown with this table."""
        return ColumnGroup(self)

    def _attach(self, group: ColumnGroup) -> None:
        self._groups.append(group)

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def acquire(self, session: "Session") -> int:
        """Assign (or return) the slot for ``session``.

        Idempotent per id; the session-level columns are stamped from
        the session object on first acquisition.
        """
        existing = self.slot_of.get(session.id)
        if existing is not None:
            return existing
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.slot_of[session.id] = slot
        self.ids[slot] = session.id
        core = self.core
        core.rate[slot] = session.rate
        core.l_max[slot] = session.l_max
        core.l_min[slot] = session.l_min
        core.jitter[slot] = session.jitter_control
        return slot

    def slot(self, session_id: str) -> int:
        """Slot of ``session_id``, or ``-1`` when not in the table."""
        return self.slot_of.get(session_id, -1)

    def release(self, session_id: str) -> None:
        """Free a session's slot, resetting it in every column group.

        Call only once the session has fully drained (no packets in
        flight anywhere) — :meth:`repro.net.network.Network
        ._finalize_removal` is the one production call site.  The reset
        is what guarantees a reused slot starts with zeroed buffer
        occupancy, drop counters, and deadline-recursion state.
        """
        slot = self.slot_of.pop(session_id, None)
        if slot is None:
            return
        self.ids[slot] = None
        for group in self._groups:
            group.reset_slot(slot)
        self._free.append(slot)

    def _grow(self) -> None:
        new_capacity = self.capacity * 2
        for group in self._groups:
            group._grow(new_capacity)
        self.ids.extend([None] * (new_capacity - self.capacity))
        self._free.extend(
            range(new_capacity - 1, self.capacity - 1, -1))
        self.capacity = new_capacity

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
                f"slots, {len(self._groups)} groups>")
