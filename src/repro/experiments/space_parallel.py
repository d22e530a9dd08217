"""Space-parallel kernel verification: serial vs sharded digests.

Not a paper figure — an executable acceptance gate for
:mod:`repro.sim.parallel`.  It builds one topology bigger than the
paper's (an eight-node T1 tandem carrying long, short, and overlapping
Leave-in-Time sessions, so traffic crosses every partition boundary in
both load regimes), runs it serially and space-parallel at several
shard counts in both coordinator modes, and compares the merged
dispatch digests — sink observables, node counters, and the
instant-normalized event trace.  Any mismatch raises
:class:`~repro.errors.SimulationError`, which is what CI's
``parallel-smoke`` job relies on.

Both a fault-free run and a run under a representative
:class:`~repro.faults.plan.FaultPlan` (link down, seeded loss *and*
corruption on boundary nodes, a pause, and a crash-restart) are
checked: faults exercise the restricted per-shard plans, the
boundary-local corruption drop, and the tx-abort path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.errors import SimulationError
from repro.faults.plan import (
    FaultPlan,
    LinkDown,
    NodePause,
    NodeRestart,
    PacketCorruption,
    PacketLoss,
)
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.parallel import ParallelRunResult, run_serial, run_sharded
from repro.sim.trace import Tracer
from repro.traffic.onoff import OnOffSource
from repro.units import PAPER_PROPAGATION_S, T1_RATE_BPS, ms

__all__ = ["SpaceParallelRow", "SpaceParallelResult",
           "tandem_builder", "default_fault_plan", "run",
           "DEFAULT_NODE_COUNT", "DEFAULT_PARTITIONS"]

DEFAULT_NODE_COUNT = 8
DEFAULT_PARTITIONS: Tuple[int, ...] = (2, 4)

RATE = 32_000.0
PACKET = 424.0


def tandem_builder(*, node_count: int = DEFAULT_NODE_COUNT,
                   seed: int = 0) -> Callable[[], Network]:
    """A builder for an ``node_count``-node T1 tandem with mixed routes.

    Routes are chosen so that, for any contiguous partition, sessions
    enter on one shard and exit on another (full-length, staggered
    mid-tandem, and single-hop sessions).  The tracer is enabled —
    the digest is only as strong as what it can see.
    """
    if node_count < 4:
        raise SimulationError(
            f"space-parallel verification wants >= 4 nodes, "
            f"got {node_count}")

    def build() -> Network:
        network = Network(seed=seed, tracer=Tracer(True))
        names = [f"n{i}" for i in range(1, node_count + 1)]
        for name in names:
            network.add_node(name, LeaveInTime(), capacity=T1_RATE_BPS,
                             propagation=PAPER_PROPAGATION_S)
        routes: List[List[str]] = [names[:]]                 # end to end
        half = node_count // 2
        routes.append(names[:half + 1])                      # front half
        routes.append(names[half - 1:])                      # back half
        routes.append(names[1:node_count - 1])               # interior
        routes.append(names[half - 1:half + 1])              # one hop mid
        for k, route in enumerate(routes):
            session = Session(f"s{k}", rate=RATE, route=route,
                              l_max=PACKET)
            network.add_session(session, keep_samples=False)
            OnOffSource(network, session, length=PACKET,
                        spacing=ms(13.25), mean_on=ms(352.0),
                        mean_off=ms(88.0))
        return network

    return build


def default_fault_plan(*, node_count: int = DEFAULT_NODE_COUNT,
                       duration: float = 2.0) -> FaultPlan:
    """A representative plan touching likely partition-boundary nodes."""
    half = node_count // 2
    edge = f"n{half}"           # last node of the front half at parts=2
    peer = f"n{half + 1}"
    inner = f"n{max(2, half - 1)}"
    scale = min(1.0, duration / 2.0)
    return FaultPlan(
        link_downs=(LinkDown(inner, 0.20 * scale, 0.50 * scale),),
        losses=(PacketLoss(edge, 0.10 * scale, 0.90 * scale, 0.2),),
        corruptions=(PacketCorruption(edge, 0.90 * scale, 1.60 * scale,
                                      0.2),),
        node_pauses=(NodePause(peer, 0.40 * scale, 0.80 * scale),),
        node_restarts=(NodeRestart(peer, 1.10 * scale),),
    )


@dataclass(frozen=True)
class SpaceParallelRow:
    """One sharded run compared against its serial reference."""

    faulted: bool
    partitions: int
    mode: str
    window_s: float
    events: int
    digest: str
    matches: bool


@dataclass
class SpaceParallelResult:
    duration: float
    seed: int
    node_count: int
    serial_digests: dict = field(default_factory=dict)
    rows: List[SpaceParallelRow] = field(default_factory=list)

    def all_match(self) -> bool:
        return all(row.matches for row in self.rows)

    def table(self) -> str:
        return format_table(
            ["plan", "parts", "mode", "window(ms)", "events", "digest",
             "match"],
            [("faulted" if r.faulted else "clean", r.partitions, r.mode,
              r.window_s * 1e3, r.events, r.digest[:12],
              "ok" if r.matches else "MISMATCH")
             for r in self.rows],
            title=f"Space-parallel digest check — {self.node_count}-node "
                  f"tandem, {self.duration:g}s "
                  f"({'all identical' if self.all_match() else 'BROKEN'})")


def run(*, duration: float = 2.0, seed: int = 0,
        node_count: int = DEFAULT_NODE_COUNT,
        partitions: Optional[int] = None,
        modes: Sequence[str] = ("inline", "process"),
        ) -> SpaceParallelResult:
    """Verify serial/sharded digest identity; raise on any mismatch.

    ``partitions`` pins a single shard count (the CLI's
    ``--partitions``); the default sweeps ``(2, 4)``.  Each count runs
    in every coordinator ``mode``, fault-free and under
    :func:`default_fault_plan`.
    """
    counts: Tuple[int, ...] = ((partitions,) if partitions is not None
                               else DEFAULT_PARTITIONS)
    builder = tandem_builder(node_count=node_count, seed=seed)
    plan = default_fault_plan(node_count=node_count, duration=duration)
    result = SpaceParallelResult(duration=duration, seed=seed,
                                 node_count=node_count)
    for faulted, fault_plan in ((False, None), (True, plan)):
        serial = run_serial(builder, duration, fault_plan=fault_plan)
        result.serial_digests[faulted] = serial.digest
        for count in counts:
            for mode in modes:
                sharded: ParallelRunResult = run_sharded(
                    builder, duration, partitions=count,
                    fault_plan=fault_plan, mode=mode)
                result.rows.append(SpaceParallelRow(
                    faulted=faulted, partitions=count, mode=mode,
                    window_s=sharded.window,
                    events=sharded.events_dispatched,
                    digest=sharded.digest,
                    matches=sharded.digest == serial.digest))
    if not result.all_match():
        bad = [r for r in result.rows if not r.matches]
        raise SimulationError(
            f"space-parallel digest mismatch in {len(bad)} run(s): " +
            "; ".join(f"parts={r.partitions} mode={r.mode} "
                      f"faulted={r.faulted}" for r in bad))
    return result
