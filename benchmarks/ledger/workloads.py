"""The ledger's five workloads and the paper-derived checks on each.

Imported only inside a measurement child (it imports ``repro``).  Every
workload goes through a public entry point and calls ``Network.run``
exactly once; the child's timing shim around that call is what splits
set-up from steady state.

Horizons are simulated seconds, frozen here.  They give 0.5-1 s of steady
state per child on the seed, so that a 20 s driver run fits eight or more
fresh-process repeats of any workload.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

from repro.bounds.delay import compute_session_bounds
from repro.experiments import call_churn, heavy_traffic
from repro.experiments.common import build_mix_network, mix_specs
from repro.net.network import Network
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.parallel import merge_payloads, payload_digest, shard_payload
from repro.units import ms

LIT = "leave-in-time"
DISCIPLINES = {LIT: LeaveInTime, "fcfs": FCFS}

HEAVY_RHO = 0.95

Check = Callable[["Outcome"], Tuple[bool, str]]


@dataclass
class Outcome:
    """What a finished workload leaves for the checks to read."""

    workload: "Workload"
    network: Network
    result: object
    horizon: float


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulated seconds of a full run.
    horizon: float
    #: ``run(horizon, seed, discipline)`` -> the entry point's return value.
    run: Callable[[float, int, str], object]
    checks: Dict[str, Check]
    digest: Callable[[Outcome], str]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _mix(jitter: bool) -> Callable[[float, int, str], object]:
    def run(horizon: float, seed: int, discipline: str) -> None:
        jitter_ids = (frozenset(spec.session_id for spec in mix_specs())
                      if jitter else frozenset())
        network = build_mix_network(
            ms(6.5), scheduler_factory=DISCIPLINES[discipline], seed=seed,
            jitter_ids=jitter_ids)
        network.run(horizon)
    return run


def _heavy(sessions: int) -> Callable[[float, int, str], object]:
    def run(horizon: float, seed: int, discipline: str) -> object:
        (cell,) = [cell for cell in heavy_traffic.cells(
            duration=horizon, seed=seed, sessions=sessions,
            rhos=(HEAVY_RHO,), backends=("soa",), topologies=("single",))
            if cell.kwargs["discipline"] == discipline]
        return cell.fn(**cell.kwargs)
    return run


def _churn(horizon: float, seed: int, discipline: str) -> object:
    if discipline != LIT:
        raise ValueError("call_churn has no discipline switch")
    return call_churn.run(duration=horizon, seed=seed, offered_erlangs=60.0,
                          mean_holding=0.5)


# ----------------------------------------------------------------------
# Checks: the paper is the oracle, not a golden file
# ----------------------------------------------------------------------
def _sessions_with_traffic(outcome: Outcome):
    network = outcome.network
    for session_id in sorted(network.sessions):
        sink = network.sinks[session_id]
        if sink.received:
            yield (sink, compute_session_bounds(
                network, network.sessions[session_id]))


def check_eq12_delay(outcome: Outcome) -> Tuple[bool, str]:
    late = [bounds.session_id
            for sink, bounds in _sessions_with_traffic(outcome)
            if not sink.max_delay < bounds.max_delay]
    return not late, f"sessions over the eq. 12 delay bound: {late[:5]}"


def check_eq17_jitter(outcome: Outcome) -> Tuple[bool, str]:
    wide = [bounds.session_id
            for sink, bounds in _sessions_with_traffic(outcome)
            if not sink.jitter < bounds.jitter]
    return not wide, f"sessions over the eq. 17 jitter bound: {wide[:5]}"


def check_saturation(outcome: Outcome) -> Tuple[bool, str]:
    """Leave-in-Time never finishes a packet ``L_MAX/C`` past its deadline."""
    network = outcome.network
    over = [name for name, node in sorted(network.nodes.items())
            if node.scheduler.lateness.count
            and not (node.scheduler.lateness.maximum
                     < network.l_max / node.link.capacity)]
    return not over, f"nodes with max lateness >= L_MAX/C: {over}"


def _packet_counts(network: Network) -> Tuple[int, int, int]:
    sinks = {id(sink): sink for sink in network.sinks.values()}
    sunk = sum(sink.received for sink in sinks.values())
    dropped = sum(sum(node.drops.values())
                  for node in network.nodes.values())
    injected = sum(source.emitted for source in network.sources)
    return sunk, dropped, injected


def check_conservation(outcome: Outcome) -> Tuple[bool, str]:
    """No packet appears from nowhere; few are still in flight at the end.

    The in-flight residue does not grow with the horizon, so the 1 % is
    taken of a full-horizon run's injections: a shortened run (smoke,
    traced) is held to the same absolute packet count.
    """
    sunk, dropped, injected = _packet_counts(outcome.network)
    residue = injected - sunk - dropped
    allowed = (0.01 * injected
               * outcome.workload.horizon / outcome.horizon)
    return (0 <= residue <= allowed,
            f"injected {injected}, sunk {sunk}, dropped {dropped}, "
            f"residue {residue} (allowed {allowed:.0f})")


def check_utilization(outcome: Outcome) -> Tuple[bool, str]:
    """The bottleneck carries the offered load ``rho``.

    0.02, or four standard errors of the Poisson packet count when a
    shortened run makes that the larger.
    """
    network = outcome.network
    (node,) = network.nodes.values()
    utilization = node.utilization(network.sim.now)
    tolerance = max(0.02, 4.0 * HEAVY_RHO
                    / math.sqrt(max(node.packets_served, 1)))
    return (abs(utilization - HEAVY_RHO) <= tolerance,
            f"utilization {utilization:.4f} vs rho {HEAVY_RHO} "
            f"(tolerance {tolerance:.4f})")


def check_bounds_hold(outcome: Outcome) -> Tuple[bool, str]:
    return outcome.result.bounds_hold(), "an accepted call broke its bound"


def check_blocked(outcome: Outcome) -> Tuple[bool, str]:
    blocked = outcome.result.blocked
    return blocked >= 1, f"{blocked} calls blocked at 60 erlangs on 48 trunks"


def network_digest(outcome: Outcome) -> str:
    """The serial observable digest, with a shared sink listed once.

    ``shard_payload`` walks ``network.sinks``; the heavy cells register one
    shared sink under 1e5 session ids, and serialising it 1e5 times costs
    a second.  The view below shows each distinct sink once, under the
    sink's own name, and is the network itself when sinks are per session.
    """
    network = outcome.network
    sinks, sessions = {}, {}
    for session_id, sink in network.sinks.items():
        if sink.session_id not in sinks:
            sinks[sink.session_id] = sink
            sessions[sink.session_id] = network.sessions[session_id]
    view = SimpleNamespace(sinks=sinks, sessions=sessions,
                           nodes=network.nodes, faults=network.faults,
                           tracer=network.tracer)
    return payload_digest(merge_payloads(
        [shard_payload(view, frozenset(network.nodes))]))


def calls_digest(outcome: Outcome) -> str:
    return hashlib.sha256(
        repr(outcome.result.calls).encode()).hexdigest()


_MIX_CHECKS = {"eq12_delay": check_eq12_delay,
               "eq17_jitter": check_eq17_jitter,
               "saturation": check_saturation,
               "conservation": check_conservation}
_HEAVY_CHECKS = {"utilization": check_utilization,
                 "saturation": check_saturation,
                 "conservation": check_conservation}
_CHURN_CHECKS = {"bounds_hold": check_bounds_hold,
                 "blocked": check_blocked}

#: Why each workload is here is in BENCHMARK.json (``why``) and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mix_onoff", 7.5, _mix(jitter=False), _MIX_CHECKS,
             network_digest),
    Workload("mix_jitter", 6.0, _mix(jitter=True), _MIX_CHECKS,
             network_digest),
    Workload("heavy_1e4", 30.0, _heavy(10_000), _HEAVY_CHECKS,
             network_digest),
    Workload("heavy_1e5", 12.0, _heavy(100_000), _HEAVY_CHECKS,
             network_digest),
    Workload("call_churn", 15.0, _churn, _CHURN_CHECKS, calls_digest),
)}


def run_checks(outcome: Outcome) -> List[Dict[str, object]]:
    """Run every check; one that raises has failed."""
    results = []
    for name, check in outcome.workload.checks.items():
        try:
            ok, detail = check(outcome)
        except Exception as error:  # a broken check must not read as a pass
            ok, detail = False, f"{type(error).__name__}: {error}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return results
