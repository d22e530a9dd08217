"""Heavy-traffic scaling: LiT vs EDD vs FCFS as ``ρ → 1`` at scale.

The paper's experiments stop at 116 sessions; the heavy-traffic theory
the discipline feeds into (Kruk, Lehoczky & Shreve's state-space
collapse for EDF-like queues) talks about the regime where a *single*
station carries an enormous session population and its load approaches
one.  This experiment pushes the simulator there: one bottleneck node
(and a short tandem variant) carrying 10^4-10^5 concurrent sessions,
each reserving an equal share ``C/N`` of the link, fed by a superposed
Poisson process at load ``ρ``.

Session state is the same slot-indexed table in every cell, and the
traffic is one :class:`~repro.traffic.superposed.SuperposedPoissonSource`
clock marking arrivals uniformly across sessions (statistically
identical to one Poisson source per session by Poisson superposition,
two RNG streams total, one pending event) feeding one shared sink.

Two measurements per cell, directly comparable across disciplines
because cells of one topology and load replay the *same* arrival sample
path (source streams are named independently of the discipline):

* **Lead-time profile** — the bottleneck scheduler's lateness tally
  (``finish − deadline`` per packet; lead time is its negation).
  State-space collapse predicts the deadline disciplines (LiT, EDD)
  shape this profile while FCFS — whose "deadline" is its arrival
  instant, making lateness the sojourn time — does not.
* **Workload conservation** — all three disciplines are
  work-conserving here (no jitter control, so LiT holds nothing), so
  the server's busy time must be sample-path identical across
  disciplines; :meth:`HeavyTrafficResult.workload_conserved` checks
  the utilization spread.

The cells run through :func:`~repro.experiments.parallel.run_cells`,
one after another in this process.  Each row also reports its cost in
events per wall-clock second; per-cell memory is measured by the
ledger benchmark's ``heavy_1e4`` / ``heavy_1e5`` workloads
(``peak_rss_mb``), one cell per fresh process.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Sequence, Tuple

from repro.analysis import bench
from repro.analysis.report import format_table
from repro.errors import ConfigurationError
from repro.experiments.common import PAPER_PACKET_BITS
from repro.experiments.parallel import Cell, run_cells
from repro.net.session import Session
from repro.net.sink import Sink
from repro.net.topology import build_paper_network
from repro.sched.edd import DelayEDD
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.superposed import SuperposedPoissonSource
from repro.units import T1_RATE_BPS, to_ms

__all__ = [
    "HeavyTrafficRow",
    "HeavyTrafficResult",
    "DEFAULT_SESSIONS",
    "DEFAULT_RHOS",
    "cells",
    "run",
]

_DISCIPLINES = (
    ("leave-in-time", LeaveInTime),
    ("delay-edd", DelayEDD),
    ("fcfs", FCFS),
)

#: Topology label -> node count ("single" station and a short tandem).
_TOPOLOGIES: Dict[str, int] = {"single": 1, "tandem": 3}

#: Default concurrent-session count (the 10^4 end of the target range;
#: the CI smoke uses this, the 10^5 end is the ledger's ``heavy_1e5``
#: workload).
DEFAULT_SESSIONS = 10_000

#: Default load sweep approaching the heavy-traffic limit.
DEFAULT_RHOS = (0.90, 0.99)


@dataclass
class HeavyTrafficRow:
    """One (topology, discipline, ρ) cell's measurements."""

    topology: str
    discipline: str
    sessions: int
    rho: float
    packets: int
    events: int
    wall_s: float
    events_per_sec: float
    utilization: float
    mean_delay_ms: float
    #: Bottleneck lateness (finish − deadline) statistics in ms; lead
    #: time is the negation.  For FCFS, deadline = arrival, so this is
    #: the bottleneck sojourn time.
    mean_lateness_ms: float
    max_lateness_ms: float
    lateness_std_ms: float


def _cell(*, topology: str, discipline: str, sessions: int, rho: float,
          duration: float, seed: int) -> HeavyTrafficRow:
    """One isolated heavy-traffic simulation."""
    watch = bench.Stopwatch()
    factory = dict(_DISCIPLINES)[discipline]
    node_count = _TOPOLOGIES[topology]
    network = build_paper_network(factory, node_count=node_count,
                                  seed=seed)
    route = tuple(f"n{i}" for i in range(1, node_count + 1))  # shared
    per_session_rate = T1_RATE_BPS / sessions
    # Per-session mean interarrival L·N / (ρ·C) seconds, i.e. an
    # aggregate arrival rate of ρ·C/L packets/s.
    mean_per_session = (PAPER_PACKET_BITS * sessions
                        / (rho * T1_RATE_BPS))
    # One tuple, registered and marked without a copy; the declaration
    # is checked once, for ``h0``.
    members = Session.population([f"h{i}" for i in range(sessions)],
                                 per_session_rate, route,
                                 l_max=PAPER_PACKET_BITS)
    sink = Sink("aggregate", keep_samples=False)
    network.add_sessions(members, sink=sink)
    SuperposedPoissonSource(network, members, length=PAPER_PACKET_BITS,
                            mean=mean_per_session)
    network.run(duration)
    bottleneck = network.nodes[route[-1]]
    lateness = bottleneck.scheduler.lateness
    wall = watch.elapsed()
    events = network.sim.events_dispatched
    return HeavyTrafficRow(
        topology=topology,
        discipline=discipline,
        sessions=sessions,
        rho=rho,
        packets=sink.received,
        events=events,
        wall_s=wall,
        events_per_sec=events / wall if wall > 0 else 0.0,
        utilization=bottleneck.utilization(network.sim.now),
        mean_delay_ms=to_ms(sink.delay.mean),
        mean_lateness_ms=to_ms(lateness.mean),
        max_lateness_ms=to_ms(lateness.maximum or 0.0),
        lateness_std_ms=to_ms(lateness.stddev),
    )


@dataclass
class HeavyTrafficResult:
    """The sweep's rows plus the conservation / collapse summaries."""

    duration: float
    seed: int
    rows: List[HeavyTrafficRow]

    def workload_conserved(self, tolerance: float = 0.02) -> bool:
        """Utilization spread across disciplines within ``tolerance``.

        All cells sharing (topology, ρ) replay the same arrival sample
        path with work-conserving disciplines, so their busy times may
        differ only by edge effects (the packets still in service when
        the horizon ends).
        """
        groups: Dict[Tuple[str, float], List[float]] = {}
        for row in self.rows:
            groups.setdefault((row.topology, row.rho), []).append(
                row.utilization)
        return all(max(utils) - min(utils) <= tolerance
                   for utils in groups.values()
                   if len(utils) > 1)

    def table(self) -> str:
        return format_table(
            ["topo", "discipline", "rho", "pkts",
             "events/s", "util", "delay(ms)", "lead mean(ms)"],
            [(r.topology, r.discipline, f"{r.rho:.2f}",
              r.packets, f"{r.events_per_sec:,.0f}",
              f"{r.utilization:.3f}", f"{r.mean_delay_ms:.3f}",
              f"{-r.mean_lateness_ms:.3f}")
             for r in self.rows],
            title=f"Heavy traffic — "
                  f"{self.rows[0].sessions if self.rows else 0} "
                  f"sessions, ρ → 1 ({self.duration:g}s simulated, "
                  f"seed {self.seed}; workload conserved: "
                  f"{'yes' if self.workload_conserved() else 'NO'})")


def cells(*, duration: float, seed: int, sessions: int,
          rhos: Sequence[float],
          topologies: Sequence[str],
          backends: Sequence[str] = ("soa",)) -> List[Cell]:
    """The declarative sweep: topology × discipline × ρ.

    ``backends`` is accepted only as ``("soa",)``, the one traffic
    construction, because ``benchmarks/ledger/`` still passes it;
    ROADMAP item 1a removes it with the ledger's next change.
    """
    unknown = [t for t in topologies if t not in _TOPOLOGIES]
    if unknown:
        raise ConfigurationError(
            f"unknown heavy-traffic topologies {unknown}; "
            f"expected subset of {sorted(_TOPOLOGIES)}")
    if isinstance(sessions, bool) or not isinstance(sessions, int) \
            or sessions < 1:
        raise ConfigurationError(
            f"heavy-traffic session count {sessions!r}; expected an int "
            f">= 1")
    bad_rhos = [rho for rho in rhos
                if not isinstance(rho, (int, float)) or not 0 < rho < inf]
    if bad_rhos:
        raise ConfigurationError(
            f"heavy-traffic loads {bad_rhos}; each rho must be finite "
            f"and positive")
    if tuple(backends) != ("soa",):
        raise ConfigurationError(
            f"heavy-traffic constructions {list(backends)}; the one "
            f"construction is ('soa',)")
    return [Cell(label=f"heavy[{topology},{discipline},rho={rho:g}]",
                 fn=_cell,
                 kwargs={"topology": topology, "discipline": discipline,
                         "sessions": sessions, "rho": rho,
                         "duration": duration, "seed": seed})
            for topology in topologies
            for discipline, _ in _DISCIPLINES
            for rho in rhos]


def run(*, duration: float = 2.0, seed: int = 0,
        sessions: int = DEFAULT_SESSIONS,
        rhos: Sequence[float] = DEFAULT_RHOS,
        topologies: Sequence[str] = ("single", "tandem")
        ) -> HeavyTrafficResult:
    """Run the heavy-traffic sweep, one cell after another."""
    rows = run_cells(cells(duration=duration, seed=seed, sessions=sessions,
                           rhos=rhos, topologies=topologies))
    return HeavyTrafficResult(duration=duration, seed=seed, rows=rows)
