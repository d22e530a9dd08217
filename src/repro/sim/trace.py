"""Optional structured event tracing.

A :class:`Tracer` collects :class:`TraceRecord` tuples when enabled and
is a no-op otherwise, so instrumented hot paths cost a single attribute
check per event when tracing is off. Traces are used by the test suite
to assert fine-grained scheduler behaviour (e.g. that a regulated packet
was held exactly until its eligibility time) without coupling tests to
internal data structures.

Categories emitted by the data path: ``"arrival"``, ``"deadline"``,
``"eligible"``, ``"tx_start"``, ``"tx_end"``, ``"drop"``, ``"flush"``.
The fault layer (``repro.faults``) adds ``"link_down"``, ``"link_up"``
and ``"fault_drop"`` — likewise guarded by ``tracer.enabled``.

A tracer observes; it never changes which events run.  A busy node
emits the records of parked arrivals and matured holds when it takes
them in (``docs/simulator.md``, "Decision epochs"), each stamped with
its own instant; :attr:`Tracer.records` stays in non-decreasing
``time``, same-instant records in emission order, and is complete up to
the clock after ``Network.run`` or, mid-run, ``network.settle()``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "Tracer"]
_TIME = attrgetter("time")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulated time of the occurrence.
    category:
        A short machine-readable tag, e.g. ``"arrival"``, ``"eligible"``,
        ``"tx_start"``, ``"tx_end"``, ``"delivered"``.
    node:
        Name of the node (or component) where it occurred.
    session:
        Session identifier, when applicable.
    packet:
        Packet sequence number within the session, when applicable.
    detail:
        Free-form extras (deadline values, holding times, ...).
    """

    time: float
    category: str
    node: str = ""
    session: str = ""
    packet: int = -1
    detail: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects trace records when enabled."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: List[TraceRecord] = []

    def emit(self, time: float, category: str, *, node: str = "",
             session: str = "", packet: int = -1,
             **detail: Any) -> None:
        """Record an occurrence if tracing is enabled."""
        if not self.enabled:
            return
        record = TraceRecord(time=time, category=category, node=node,
                             session=session, packet=packet, detail=detail)
        records = self.records
        if records and time < records[-1].time:
            insort(records, record, key=_TIME)
        else:
            records.append(record)

    def filter(self, category: Optional[str] = None, *,
               node: Optional[str] = None,
               session: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate records matching every given criterion."""
        for record in self.records:
            if category is not None and record.category != category:
                continue
            if node is not None and record.node != node:
                continue
            if session is not None and record.session != session:
                continue
            yield record

    def count(self, category: Optional[str] = None, *,
              node: Optional[str] = None,
              session: Optional[str] = None) -> int:
        """Number of records matching every given criterion."""
        return sum(1 for _ in self.filter(category, node=node,
                                          session=session))

    def clear(self) -> None:
        self.records.clear()
