"""Call-level churn: dynamic admission, blocking, and live guarantees.

The paper treats admission control statically (a connection either
passes the tests everywhere or it does not). This experiment exercises
the same machinery under call dynamics — the "call admission problem"
of its reference [25]:

* calls arrive as a Poisson process, each requesting a 32 kbit/s
  five-hop connection under procedure 1 with one class;
* an accepted call holds for an exponential time, sends ON-OFF voice
  traffic, then tears down (releasing its reservations);
* a call failing the tests anywhere on the route is *blocked* (the
  controller rolls back partial reservations).

Measured: the blocking probability against the Erlang load, and — the
Leave-in-Time point — that every *accepted* call's measured delay
respects its eq.-12 bound even while the admitted set churns around
it. The offered load is set above capacity (48 trunks of 32 kbit/s per
T1 link) so blocking is actually exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.admission.classes import DelayClass
from repro.admission.controller import AdmissionController
from repro.admission.procedure1 import Procedure1
from repro.analysis.report import format_table
from repro.bounds.delay import compute_session_bounds
from repro.errors import AdmissionError
from repro.experiments.common import FIVE_HOP
from repro.net.session import Session
from repro.net.topology import build_paper_network
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.kernel import PRIORITY_NORMAL
from repro.sim.rng import ExponentialSampler
from repro.traffic.onoff import OnOffSource
from repro.units import ms, to_ms

__all__ = ["CallRecord", "CallChurnResult", "run"]

RATE = 32_000.0
PACKET = 424.0

#: Trunk capacity of one T1 link in 32 kbit/s calls.
TRUNKS = 48


@dataclass(slots=True)
class CallRecord:
    call_id: int
    arrived_at: float
    blocked: bool
    ended_at: Optional[float] = None
    packets: int = 0
    max_delay: float = 0.0
    bound: float = 0.0

    @property
    def bound_held(self) -> bool:
        return self.blocked or self.max_delay <= self.bound


@dataclass
class CallChurnResult:
    duration: float
    seed: int
    offered_erlangs: float
    calls: List[CallRecord] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        return len(self.calls)

    @property
    def blocked(self) -> int:
        return sum(1 for call in self.calls if call.blocked)

    @property
    def blocking_probability(self) -> float:
        return self.blocked / self.attempts if self.attempts else 0.0

    def bounds_hold(self) -> bool:
        return all(call.bound_held for call in self.calls)

    def table(self) -> str:
        accepted = [c for c in self.calls if not c.blocked]
        worst = max((c.max_delay for c in accepted), default=0.0)
        # Every accepted call has the same route, rate and class.
        bound = f"{to_ms(accepted[0].bound):.2f}" if accepted else "n/a"
        rows = [
            ("call attempts", self.attempts),
            ("blocked", self.blocked),
            ("blocking probability",
             f"{self.blocking_probability:.3f}"),
            ("offered load (erlangs/link)",
             f"{self.offered_erlangs:.1f} of {TRUNKS}"),
            ("worst accepted-call delay (ms)", f"{to_ms(worst):.2f}"),
            ("per-call delay bound (ms)", bound),
            ("all accepted bounds held",
             "yes" if self.bounds_hold() else "NO"),
        ]
        return format_table(
            ["metric", "value"], rows,
            title=f"Call churn — dynamic ACP1 admission "
                  f"({self.duration:.0f}s, seed {self.seed})")


class _ChurnDriver:
    """Event-driven call generator/terminator over one network."""

    def __init__(self, network, controller, result, *,
                 mean_interarrival: float, mean_holding: float) -> None:
        self.network = network
        self.controller = controller
        self.result = result
        streams = network.streams
        self._arrival_gap = ExponentialSampler(
            streams.stream("call-arrivals"), mean_interarrival)
        self._holding = ExponentialSampler(
            streams.stream("call-holding"), mean_holding)
        self._next_id = 0
        self._sources = {}

    def start(self) -> None:
        self.network.sim.schedule(self._arrival_gap.sample(),
                                  self._call_arrives,
                                  priority=PRIORITY_NORMAL)

    def _call_arrives(self) -> None:
        network = self.network
        sim = network.sim
        call_id = self._next_id
        self._next_id += 1
        record = CallRecord(call_id=call_id, arrived_at=sim.now,
                            blocked=False)
        self.result.calls.append(record)

        session = Session(f"call-{call_id}", rate=RATE, route=FIVE_HOP,
                          l_max=PACKET, token_bucket=(RATE, PACKET))
        try:
            self.controller.admit(session, class_number=1)
        except AdmissionError:
            record.blocked = True
        else:
            network.add_session(session, keep_samples=False)
            record.bound = compute_session_bounds(
                network, session).max_delay
            source = OnOffSource(network, session, length=PACKET,
                                 spacing=ms(13.25), mean_on=ms(352),
                                 mean_off=ms(650))
            source.start()
            self._sources[call_id] = (record, session, source)
            sim.schedule(self._holding.sample(), self._call_ends,
                         call_id, priority=PRIORITY_NORMAL)
        sim.schedule(self._arrival_gap.sample(), self._call_arrives,
                     priority=PRIORITY_NORMAL)

    def _call_ends(self, call_id: int) -> None:
        network = self.network
        record, session, source = self._sources.pop(call_id)
        source.stop()
        self.controller.release(session)
        self._harvest(record, session)
        record.ended_at = network.sim.now
        # Tear the call down immediately, even with packets still in
        # flight: remove_session drains then forgets, so no deferred
        # cleanup-and-retry dance is needed.
        network.remove_session(session.id)

    def _harvest(self, record: CallRecord, session: Session) -> None:
        sink = self.network.sink(session.id)
        record.packets = sink.received
        record.max_delay = sink.max_delay

    def finish(self) -> None:
        """Harvest calls still in progress at the horizon."""
        for _call_id, (record, session, _source) in sorted(
                self._sources.items()):
            self._harvest(record, session)


def run(*, duration: float = 60.0, seed: int = 0,
        offered_erlangs: float = 60.0,
        mean_holding: float = 10.0) -> CallChurnResult:
    """Drive Poisson call arrivals at ``offered_erlangs`` of load over
    one network with one churn driver.

    Offered load in erlangs = arrival rate × mean holding; with 48
    trunks per link, 60 erlangs gives substantial blocking.
    """
    network = build_paper_network(LeaveInTime, seed=seed)
    controller = AdmissionController(
        network,
        lambda node: Procedure1(node.link.capacity,
                                [DelayClass(node.link.capacity,
                                            ms(13.25))]))
    result = CallChurnResult(duration=duration, seed=seed,
                             offered_erlangs=offered_erlangs)
    driver = _ChurnDriver(network, controller, result,
                          mean_interarrival=mean_holding
                          / offered_erlangs,
                          mean_holding=mean_holding)
    driver.start()
    network.run(duration)
    driver.finish()
    return result
