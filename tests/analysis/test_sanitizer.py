"""Runtime conservation-law sanitizer: fed trace records, and on live
networks.

The deliberate-bug tests inject broken invariants (a scheduler that
swallows packets, decreasing LiT labels, over-committed reservations,
holds released early) and assert the sanitizer names each one; the
clean-run tests — one per discipline — assert
silence *and* that sanitizing is behaviourally invisible — the
shortened Figure-7 cell must still match the golden dispatch digest
from ``tests/sim/test_dispatch_digest.py``, dispatched through the
plain run's loop.
"""

from __future__ import annotations

import json
import pickle
from types import SimpleNamespace

import pytest

from repro.analysis.verify.sanitizer import (
    MAX_VIOLATIONS,
    RATE_EPSILON,
    Sanitizer,
    SanitizerError,
    SanitizerReport,
    sanitize_enabled,
)
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.edd import DelayEDD, JitterEDD
from repro.sched.fcfs import FCFS
from repro.sched.hrr import HierarchicalRoundRobin
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.rcsp import RCSP
from repro.sched.stop_and_go import StopAndGo
from repro.sched.wfq import WFQ
from repro.sim.trace import Tracer
from repro.traffic.onoff import OnOffSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.trace_source import TraceSource
from repro.units import TIME_EPSILON, ms
from tests.conftest import add_trace_session
from tests.sim.test_dispatch_digest import (
    FIG07_CELL_EVENTS,
    FIG07_CELL_OBSERVABLES_TRACE_OFF,
    FIG07_CELL_TRACE,
    fig07_cell,
)
from tests.sim.test_observable_digest import observe


# ----------------------------------------------------------------------
# Plumbing
# ----------------------------------------------------------------------
def test_sanitize_enabled_truth_table():
    for value in ("1", "true", "YES", " on "):
        assert sanitize_enabled(value)
    for value in (None, "", "0", "false", "off", "2"):
        assert not sanitize_enabled(value)


def test_error_survives_pickling_with_report():
    report = SanitizerReport().to_json()
    error = pickle.loads(pickle.dumps(SanitizerError(report)))
    assert error.report_json == report
    assert json.loads(error.report_json)["clean"] is True


def test_rate_epsilon_matches_admission_layer():
    # sanitizer.py keeps the value literal so it never imports the
    # layer it checks; this test is the documented pin between the two.
    from repro.admission.base import RATE_EPSILON as ADMISSION_EPSILON
    assert RATE_EPSILON == ADMISSION_EPSILON


def test_violation_cap_counts_overflow():
    sanitizer = Sanitizer()
    for k in range(MAX_VIOLATIONS + 7):
        sanitizer.record("test-check", float(k), f"violation {k}")
    report = sanitizer.report()
    assert len(report.violations) == MAX_VIOLATIONS
    assert report.dropped_violations == 7
    assert not report.clean


# ----------------------------------------------------------------------
# Individual checks against deliberate violations, fed as trace records
# ----------------------------------------------------------------------
def _watching(sanitizer, **nodes):
    """A tracer, not recording, that feeds ``sanitizer`` records about
    ``nodes`` (name -> stand-in node)."""
    tracer = Tracer()
    sanitizer.watch(SimpleNamespace(nodes=nodes, tracer=tracer))
    assert tracer.enabled and not tracer.recording
    return tracer


def test_reservation_sum_over_capacity_is_flagged():
    sanitizer = Sanitizer()
    procedures = {
        "ok": SimpleNamespace(reserved_rate=1.0, capacity=1.0),
        "bad": SimpleNamespace(reserved_rate=2.0, capacity=1.0),
    }
    sanitizer.check_reservations(procedures, now=1.5)
    [violation] = sanitizer.report().violations
    assert violation.check == "reservation-capacity"
    assert violation.node == "bad"
    assert violation.time == 1.5


def test_lit_label_recursions_must_not_decrease():
    sanitizer = Sanitizer()
    tracer = _watching(sanitizer)
    tracer.emit(0.0, "deadline", node="n", session="s", packet=1,
                eligible=0.0, deadline=2.0, k=2.5)
    tracer.emit(1.0, "deadline", node="n", session="s", packet=2,
                eligible=1.0, deadline=1.0, k=1.5)
    checks = sorted(v.check for v in sanitizer.report().violations)
    assert checks == ["lit-f-monotone", "lit-k-monotone"]


def test_lit_forget_restarts_the_recursion():
    sanitizer = Sanitizer()
    tracer = _watching(sanitizer)
    tracer.emit(0.0, "deadline", node="n", session="s", packet=1,
                eligible=0.0, deadline=2.0, k=2.5)
    sanitizer.forget_session("n", "s")
    # Re-admitted session: smaller labels are legitimate now.
    tracer.emit(1.0, "deadline", node="n", session="s", packet=1,
                eligible=1.0, deadline=1.0, k=1.5)
    assert sanitizer.report().clean


def test_serving_before_eligibility_is_flagged():
    sanitizer = Sanitizer()
    packet = SimpleNamespace(seq=7, eligible_time=5.0,
                             session=SimpleNamespace(id="s"))
    tracer = _watching(sanitizer,
                       n=SimpleNamespace(transmitting=packet))
    tracer.emit(1.0, "tx_start", node="n", session="s", packet=7,
                deadline=6.0)
    [violation] = sanitizer.report().violations
    assert violation.check == "eligible-before-serve"
    assert violation.session == "s"


# ----------------------------------------------------------------------
# Live networks
# ----------------------------------------------------------------------
def _one_node_network(scheduler, sanitizer):
    network = Network(sanitizer=sanitizer)
    network.add_node("a", scheduler, capacity=1e6)
    session = Session("s", rate=50_000.0, route=["a"], l_max=424.0)
    network.add_session(session)
    TraceSource(network, session, times=[0.0, 0.01, 0.02], lengths=424.0)
    return network


def test_clean_run_reports_clean():
    sanitizer = Sanitizer()
    network = _one_node_network(FCFS(), sanitizer)
    network.run(1.0)
    report = sanitizer.report()
    assert report.clean
    assert report.packets_injected == 3
    assert report.packets_sunk == 3
    assert report.checks_run > 0


class _SwallowingFCFS(FCFS):
    """Deliberate conservation bug: silently discards every 2nd packet."""

    def __init__(self) -> None:
        super().__init__()
        self._seen = 0

    def on_arrival(self, packet, now):
        self._seen += 1
        if self._seen % 2 == 0:
            return  # vanishes: not queued, not dropped, not forwarded
        super().on_arrival(packet, now)


def test_swallowed_packet_breaks_conservation():
    network = _one_node_network(_SwallowingFCFS(), Sanitizer())
    with pytest.raises(SanitizerError) as excinfo:
        network.run(1.0)
    report = json.loads(excinfo.value.report_json)
    assert report["clean"] is False
    checks = {v["check"] for v in report["violations"]}
    assert "packet-conservation" in checks
    assert all(v["node"] == "a" for v in report["violations"]
               if v["check"] == "packet-conservation")


# ----------------------------------------------------------------------
# The same two bugs where the work is parked: the sanitizer watches
# decision-epoch forwarding, so it has to go red there, and name the
# parked entry's own instant rather than the clock of whoever took it in
# ----------------------------------------------------------------------
class _SwallowingLiT(LeaveInTime):
    """Discards every packet of session ``s`` on arrival."""

    def on_arrival(self, packet, now):
        if packet.session.id != "s":
            super().on_arrival(packet, now)


def test_a_swallowed_parked_arrival_is_named_at_its_own_instant():
    # L/C = 1 s, Γ = 0.1 s.  ``x`` keeps n2 busy from 0 to 3; ``s``
    # leaves n1 at 1.0 and is parked at n2, stamped 1.1, until n2's
    # completion at 2.0 takes it in.
    network = Network(sanitizer=Sanitizer())
    network.add_node("n1", LeaveInTime(), capacity=100.0, propagation=0.1)
    network.add_node("n2", _SwallowingLiT(), capacity=100.0,
                     propagation=0.1)
    add_trace_session(network, "x", rate=50.0, times=[0.0, 0.0, 0.0],
                      lengths=100.0, route=["n2"])
    add_trace_session(network, "s", rate=50.0, times=[0.0],
                      lengths=100.0, route=["n1", "n2"])
    waiting = []
    network.sim.schedule_at(
        1.5, lambda: waiting.append(list(network.node("n2")._inbox)))
    with pytest.raises(SanitizerError) as excinfo:
        network.run(5.0)
    [[(stamp, packet)]] = waiting
    assert (stamp, packet.session.id) == (1.1, "s")
    first = json.loads(excinfo.value.report_json)["violations"][0]
    assert (first["check"], first["node"], first["session"],
            first["time"]) == ("packet-conservation", "n2", "s", 1.1)


def _released_early(discipline):
    """Run a one-packet tandem whose second node (``discipline``) ends
    every regulator hold a little over TIME_EPSILON early; return the
    hold's release instant and the one violation reported."""
    class Early(discipline):
        def _hold(self, packet, eligible_at):
            super()._hold(packet, eligible_at - 2.5 * TIME_EPSILON)

    network = Network(sanitizer=Sanitizer())
    network.add_node("n1", discipline(), capacity=100.0, propagation=0.1)
    network.add_node("n2", Early(), capacity=100.0, propagation=0.1)
    _, sink, _ = add_trace_session(
        network, "s", rate=50.0, times=[0.0], lengths=100.0,
        route=["n1", "n2"], jitter_control=True)
    held = []
    network.sim.schedule_at(
        1.5, lambda: held.extend(network.node("n2")._holds))
    with pytest.raises(SanitizerError) as excinfo:
        network.run(10.0)
    [(release, _, packet, timer)] = held
    assert timer is None  # no event of its own: it matured at a wake
    assert release == packet.eligible_time - 2.5 * TIME_EPSILON
    assert sink.received == 1
    [violation] = json.loads(excinfo.value.report_json)["violations"]
    return release, violation


def test_a_hold_released_early_is_named_at_its_own_instant():
    release, violation = _released_early(LeaveInTime)
    assert (violation["check"], violation["node"], violation["session"],
            violation["time"]) == ("eligible-before-serve", "n2", "s",
                                   release)


def test_a_jitter_edd_hold_released_early_is_named_too():
    """Eligibility is read off the packet put on the link, whichever
    regulator held it: a discipline that is not LiT is checked too."""
    release, violation = _released_early(JitterEDD)
    assert (violation["check"], violation["node"], violation["session"],
            violation["time"]) == ("eligible-before-serve", "n2", "s",
                                   release)


def test_env_var_installs_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Network().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Network().sanitizer is None
    monkeypatch.delenv("REPRO_SANITIZE")
    assert Network().sanitizer is None


def test_explicit_sanitizer_consumes_the_network_trace():
    """The tracer is the one observer the hop path knows: nodes and
    schedulers never see the sanitizer, which reads the records it
    checks without the tracer keeping them."""
    sanitizer = Sanitizer()
    network = _one_node_network(FCFS(), sanitizer)
    assert network.sanitizer is sanitizer
    assert not hasattr(network.sim, "sanitizer")  # the kernel never sees it
    node = network.node("a")
    assert not hasattr(node, "sanitizer")
    assert not hasattr(node.scheduler, "sanitizer")
    tracer = network.tracer
    assert node.tracer is node.scheduler.tracer is tracer
    # Nothing to record: the emit sites call the sanitizer itself.
    assert tracer.consumer == tracer.emit == sanitizer.consume
    assert tracer.enabled and not tracer.recording
    network.run(1.0)
    assert tracer.records == [] and sanitizer.report().checks_run > 0


# ----------------------------------------------------------------------
# Sanitizing must be behaviourally invisible: the shortened Figure-7
# cell still matches the golden dispatch digest, with zero violations.
# ----------------------------------------------------------------------

#: Every discipline of ``repro.sched``, as a factory.
EVERY_DISCIPLINE = {
    "lit": LeaveInTime, "fcfs": FCFS, "wfq": WFQ, "delay-edd": DelayEDD,
    "jitter-edd": JitterEDD, "rcsp": lambda: RCSP([0.01, 0.05]),
    "stop-and-go": lambda: StopAndGo(ms(13.25)),
    "hrr": lambda: HierarchicalRoundRobin(ms(13.25)),
}


@pytest.mark.parametrize("discipline", sorted(EVERY_DISCIPLINE))
def test_every_discipline_runs_clean_under_the_sanitizer(discipline):
    """A 3-node tandem, ON-OFF and Poisson sessions, half of them under
    jitter control: conservation and eligibility are checked on every
    hop of every discipline, and nothing is found."""
    sanitizer = Sanitizer()
    network = Network(seed=3, sanitizer=sanitizer)
    names = ["n1", "n2", "n3"]
    for name in names:
        network.add_node(name, EVERY_DISCIPLINE[discipline](),
                         capacity=1_536_000.0, propagation=0.001)
    for index in range(6):
        session = Session(f"s{index}", rate=200_000.0,
                          route=names[index % 2:], l_max=424.0,
                          jitter_control=index % 2 == 0)
        network.add_session(session, keep_samples=False)
        if index < 3:
            OnOffSource(network, session, length=424.0, spacing=0.0015,
                        mean_on=0.02, mean_off=0.004)
        else:
            PoissonSource(network, session, length=424.0, mean=0.0025)
    network.run(1.0)  # a violation raises here
    report = sanitizer.report()
    hops = sum(node.packets_served for node in network.nodes.values())
    assert report.clean and hops > 1000
    assert report.checks_run > 3 * hops  # arrival, tx_start, tx_end


def test_sanitized_fig07_cell_is_clean_and_bit_identical(monkeypatch):
    """Same output, same events, same trace as the unwatched run — and
    the number of checks the sanitizer ran while it still forced one
    event per arrival (recorded at 3dd4576).
    ``events_checked`` is the kernel's own dispatch count."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    for trace_on in (False, True):
        ((network,), _), cell = observe(lambda: fig07_cell(trace_on))
        report = network.sanitizer.report()  # the env var reached the ctor
        assert report.clean, report.to_json()
        assert report.events_checked == FIG07_CELL_EVENTS
        assert report.checks_run == 52956
        assert cell == (FIG07_CELL_OBSERVABLES_TRACE_OFF, FIG07_CELL_EVENTS,
                        FIG07_CELL_TRACE if trace_on else None)


def test_sanitized_fault_sweep_short_is_clean(monkeypatch):
    # Both fault paths (a link outage, a loss window) must keep the
    # conservation ledgers balanced; SanitizerError would propagate.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.experiments import fault_sweep
    result = fault_sweep.run(duration=2.0, seed=0,
                             outages=(0.0, 0.5), workers=1)
    assert result.table()
