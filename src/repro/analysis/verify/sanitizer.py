"""Runtime conservation-law sanitizer (``--sanitize`` / ``REPRO_SANITIZE=1``).

The static rules in :mod:`repro.analysis.verify.rules` prove properties
of the *code*; this module checks the corresponding properties of a
*running simulation*:

* **Packet conservation per node** — every packet whose last bit
  arrived at a node is either forwarded, dropped, or still inside the
  node (scheduler backlog + the one on the link).  Checked after every
  arrival, forward, and drop, and again at end of run.
* **Reservation sums** — at every admission-state change, each node's
  committed rate stays ≤ its link capacity (paper eq. 18's invariant),
  with the same epsilon the admission layer uses.
* **Leave-in-Time label monotonicity** — per (node, session), the
  deadline ``F_i`` and virtual-clock ``K_i`` recursions (paper
  eqs. 10-11) never decrease.
* **Eligibility** — under every discipline, no packet is served before
  its regulator eligibility time (eq. 6-8).

Cost model: it consumes the network's :class:`~repro.sim.trace.Tracer`
records, so no node or scheduler knows it exists and a run without
``--sanitize`` pays nothing beyond tracing's own ``enabled`` test.  What
has no record (injection, sink, teardown, admission, end of run) the
network and the admission controller call directly.  The kernel pays
*zero*: a sanitized run dispatches through the plain run's loop.

Violations are collected (capped) rather than raised at the offending
instant, so one report shows every broken invariant of a run;
:meth:`Network.run` raises :class:`SanitizerError` at the end when any
were recorded.  The report is structured JSON (:class:`SanitizerReport`)
for CI consumption.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.units import TIME_EPSILON

__all__ = [
    "MAX_VIOLATIONS",
    "Sanitizer",
    "SanitizerError",
    "SanitizerReport",
    "SanitizerViolation",
    "sanitize_enabled",
]

#: Keep at most this many violations; one broken invariant often
#: triggers on every subsequent packet, and an unbounded list would
#: turn a diagnostic into an OOM.
MAX_VIOLATIONS = 50

#: Reservation tolerance.  Deliberately the same value as
#: ``repro.admission.base.RATE_EPSILON`` (kept literal here so the
#: sanitizer package never imports the layer it is checking); the unit
#: test ``test_sanitizer.py::test_rate_epsilon_matches_admission``
#: pins the two together.
RATE_EPSILON = 1e-6


class SanitizerError(SimulationError):
    """A sanitized run finished with recorded invariant violations.

    Carries the report as its single ``str`` argument (the JSON
    document), so the exception survives pickling across the parallel
    runner's process pool, which rebuilds exceptions from ``args``.
    """

    @property
    def report_json(self) -> str:
        return str(self.args[0]) if self.args else "{}"


@dataclass(frozen=True, slots=True)
class SanitizerViolation:
    """One broken invariant at one simulated instant."""

    check: str
    time: float
    message: str
    node: Optional[str] = None
    session: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "check": self.check,
            "time": self.time,
            "message": self.message,
        }
        if self.node is not None:
            payload["node"] = self.node
        if self.session is not None:
            payload["session"] = self.session
        return payload


@dataclass
class SanitizerReport:
    """Structured result of a sanitized run."""

    violations: List[SanitizerViolation] = field(default_factory=list)
    dropped_violations: int = 0
    events_checked: int = 0
    packets_injected: int = 0
    packets_sunk: int = 0
    checks_run: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations and not self.dropped_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clean": self.clean,
            "violations": [v.to_dict() for v in self.violations],
            "dropped_violations": self.dropped_violations,
            "events_checked": self.events_checked,
            "packets_injected": self.packets_injected,
            "packets_sunk": self.packets_sunk,
            "checks_run": self.checks_run,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class _NodeLedger:
    """Per-node packet accounting: arrivals, forwards, drops."""

    __slots__ = ("arrivals", "forwarded", "dropped")

    def __init__(self) -> None:
        self.arrivals = 0
        self.forwarded = 0
        self.dropped = 0


def sanitize_enabled(value: Optional[str]) -> bool:
    """Truthiness of the ``REPRO_SANITIZE`` environment variable."""
    return value is not None and value.strip().lower() in (
        "1", "true", "yes", "on")


class Sanitizer:
    """Collects conservation-law checks for one simulation run.

    It consumes a network's trace records (:meth:`watch`).  Every
    check is O(1) and a pure observer: it works from the record's
    ``time`` and never settles, wakes or schedules.
    """

    def __init__(self, max_violations: int = MAX_VIOLATIONS) -> None:
        self.max_violations = max_violations
        self.violations: List[SanitizerViolation] = []
        self.dropped_violations = 0
        #: The kernel's ``events_dispatched``, read by :meth:`finalize`
        #: (the report's ``events_checked``): the kernel counts, the
        #: sanitizer does not.
        self.dispatched = 0
        self.checks_run = 0
        self.injected = 0
        self.sunk = 0
        self._ledgers: Dict[str, _NodeLedger] = defaultdict(_NodeLedger)
        #: Last seen (K_i, F_i) per (node, session); cleared on
        #: teardown so a session re-added under its id restarts its recursion.
        self._labels: Dict[Tuple[str, str], Tuple[float, float]] = {}
        #: The watched network's nodes by name: a record names its node.
        self._nodes: Mapping[str, Any] = {}

    def watch(self, network: Any) -> None:
        """Consume ``network``'s records, whether its tracer keeps them."""
        self._nodes = network.nodes
        network.tracer.attach(self.consume)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, check: str, time: float, message: str, *,
               node: Optional[str] = None,
               session: Optional[str] = None) -> None:
        if len(self.violations) >= self.max_violations:
            self.dropped_violations += 1
            return
        self.violations.append(SanitizerViolation(
            check=check, time=time, message=message, node=node,
            session=session))

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            violations=list(self.violations),
            dropped_violations=self.dropped_violations,
            events_checked=self.dispatched,
            packets_injected=self.injected,
            packets_sunk=self.sunk,
            checks_run=self.checks_run)

    # ------------------------------------------------------------------
    # Network calls (packet counts, teardown)
    # ------------------------------------------------------------------
    def on_inject(self, packet: Any) -> None:
        self.injected += 1

    def on_sink(self, packet: Any) -> None:
        self.sunk += 1

    def forget_session(self, node: str, session: str) -> None:
        """``session`` was torn down at ``node``; restart its recursion."""
        self._labels.pop((node, session), None)

    # ------------------------------------------------------------------
    # Trace records
    # ------------------------------------------------------------------
    def consume(self, time: float, category: str, node: str = "",
                session: str = "", packet: int = -1, eligible: float = 0.0,
                deadline: float = 0.0, k: float = 0.0) -> None:
        """One trace record, as :meth:`Tracer.emit` takes it; the four a
        hop passes first.

        The detail fields the data path emits are parameters and there
        is no ``**detail``: CPython matches a keyword it has no name for
        against every parameter and builds a dict for the rest, which
        cost more than the checks.  A record with a new field fails
        here, loud."""
        if category == "tx_end":  # it left the node
            ledger = self._ledgers[node]
            ledger.forwarded += 1
        elif category == "arrival":  # the scheduler took it in
            ledger = self._ledgers[node]
            ledger.arrivals += 1
        elif category == "tx_start":
            # Any discipline's: served no earlier than eligible (eq. 6-8).
            self.checks_run += 1
            due = self._nodes[node].transmitting.eligible_time
            if due > time + TIME_EPSILON:
                self.record(
                    "eligible-before-serve", time,
                    f"packet #{packet} served at {time!r} before its "
                    f"eligibility time {due!r}", node=node, session=session)
            return
        elif category == "deadline":
            # Leave-in-Time's F_i / K_i (eqs. 10-11) never decrease.
            self.checks_run += 1
            key = (node, session)
            previous = self._labels.get(key)
            if previous is not None:
                k_prev, f_prev = previous
                if k < k_prev - TIME_EPSILON:
                    self.record(
                        "lit-k-monotone", time,
                        f"K recursion decreased: {k!r} < {k_prev!r}",
                        node=node, session=session)
                if deadline < f_prev - TIME_EPSILON:
                    self.record(
                        "lit-f-monotone", time,
                        f"deadline recursion decreased: {deadline!r} < "
                        f"{f_prev!r}", node=node, session=session)
            self._labels[key] = (k, deadline)
            return
        elif category == "drop":  # a finite buffer refused it
            ledger = self._ledgers[node]
            ledger.arrivals += 1
            ledger.dropped += 1
        elif category == "fault_drop":
            # Lost on the link right after its ``tx_end``: it ends as a
            # drop, not a forward (the identity holds).
            ledger = self._ledgers[node]
            ledger.forwarded -= 1
            ledger.dropped += 1
            return
        else:  # eligible, flush, link_down, link_up
            return
        self._check_conservation(node, ledger, time, session)

    def _check_conservation(self, name: str, ledger: _NodeLedger,
                            now: float,
                            session: Optional[str] = None) -> None:
        """The identity at ``now``, a parked arrival's own instant, from
        the queue and the holds as they are: the ``backlog`` view would
        settle the node, and an observer takes nothing in."""
        self.checks_run += 1
        node = self._nodes[name]
        scheduler = node.scheduler
        in_node = (scheduler._queued() + len(scheduler._holds)
                   + (1 if node.transmitting is not None else 0))
        expected = ledger.forwarded + ledger.dropped + in_node
        if ledger.arrivals != expected:
            self.record(
                "packet-conservation", now,
                f"arrivals={ledger.arrivals} != forwarded="
                f"{ledger.forwarded} + dropped={ledger.dropped} + "
                f"in_node={in_node}", node=name, session=session)

    # ------------------------------------------------------------------
    # Admission calls (reservation sums)
    # ------------------------------------------------------------------
    def check_reservations(self, procedures: Mapping[str, Any],
                           now: float = 0.0) -> None:
        """Assert reserved-rate ≤ capacity at every node, right now."""
        self.checks_run += 1
        for node_name in sorted(procedures):
            procedure = procedures[node_name]
            reserved = procedure.reserved_rate
            capacity = procedure.capacity
            if reserved > capacity + RATE_EPSILON:
                self.record(
                    "reservation-capacity", now,
                    f"committed rate {reserved!r} exceeds link capacity "
                    f"{capacity!r}", node=node_name)

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, network: Any) -> None:
        """Whole-network balance checks once the run stops."""
        now = network.sim.now
        self.dispatched = network.sim.events_dispatched
        for name in sorted(network.nodes):
            self._check_conservation(name, self._ledgers[name], now)
        self._check_wire_balance(now)

    def _check_wire_balance(self, now: float) -> None:
        """Every forwarded packet either sank, arrived at the next hop,
        or is still mid-propagation — so forwards minus sinks can never
        fall short of the inter-node handoffs (``in-flight on the wire``
        is the nonnegative difference)."""
        self.checks_run += 1
        total_forwarded = sum(led.forwarded
                              for led in self._ledgers.values())
        total_arrivals = sum(led.arrivals
                             for led in self._ledgers.values())
        handoffs = total_arrivals - self.injected
        if total_forwarded - self.sunk < handoffs:
            self.record(
                "wire-balance", now,
                f"forwarded={total_forwarded} - sunk={self.sunk} "
                f"under-explains inter-node handoffs={handoffs}")
