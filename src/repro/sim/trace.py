"""Optional structured event tracing, the hop path's one observer.

A :class:`Tracer` keeps :class:`TraceRecord` tuples when recording and
hands each to its one consumer (the ``--sanitize`` checker); with
neither it is a no-op, so instrumented hot paths cost a single
attribute check per event. Traces are used by the test suite
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
from typing import Any, Callable, Dict, Iterator, List, Optional

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
    """Keeps records when recording (``Tracer(True)``); hands each to
    the consumer.  ``enabled``, what the emit sites test, is recording
    or a consumer attached: set :attr:`recording`, not ``enabled``."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = self._recording = enabled
        #: The one consumer (the ``--sanitize`` checker), called as
        #: :meth:`emit` is, with every record.
        self.consumer: Optional[Callable[..., None]] = None
        self.records: List[TraceRecord] = []

    @property
    def recording(self) -> bool:
        """Whether emitted records are kept in :attr:`records`."""
        return self._recording

    @recording.setter
    def recording(self, on: bool) -> None:
        self._recording = on
        self._route()

    def attach(self, consumer: Callable[..., None]) -> None:
        """Hand every record to ``consumer`` (it takes the one slot),
        whether or not this tracer records."""
        self.consumer = consumer
        self._route()

    def _route(self) -> None:
        """Turn the sites on for a consumer or recording; with nothing
        to record, ``emit`` *is* the consumer: one call per record."""
        self.enabled = self._recording or self.consumer is not None
        if self._recording or self.consumer is None:
            vars(self).pop("emit", None)
        else:
            vars(self)["emit"] = self.consumer

    def emit(self, time: float, category: str, node: str = "",
             session: str = "", packet: int = -1,
             **detail: Any) -> None:
        """Record an occurrence, and hand it to the consumer.  The data
        path passes ``node``, ``session`` and ``packet`` by position: a
        keyword costs the consumer more to match."""
        if self.consumer is not None:
            self.consumer(time, category, node, session, packet, **detail)
        if not self._recording:
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
