"""Regulator comparison: Leave-in-Time jitter control vs Jitter-EDD.

Both disciplines cancel upstream jitter with per-hop regulators driven
by an in-header correction; they differ in what admission must know:

* **Jitter-EDD**'s local delay bounds come from a schedulability test
  that assumes every session honours its (x_min, x_ave, I, P)
  characterization — the "more restrictive than a token-bucket filter"
  envelope of the paper's §4;
* **Leave-in-Time** needs only the bandwidth reservation: its
  guarantees are functions of the session's own traffic (the firewall
  property), not of anyone's declared envelope.

The experiment makes that difference measurable. The same five-hop
ON-OFF target runs under both disciplines against two kinds of cross
traffic filling the links:

* **conformant** — Deterministic cross sessions that honour the x_min
  their EDD bounds assume;
* **unpoliced** — Poisson cross sessions offering the same average
  rate but violating x_min at will (and nobody polices them).

Expected shape: Leave-in-Time's jitter bound holds in *both* columns;
Jitter-EDD's holds only in the conformant one — with unpoliced cross
traffic its schedulability assumption breaks and so does its bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.experiments.common import (
    FIVE_HOP,
    PAPER_PACKET_BITS,
    TARGET,
    add_cross_traffic,
    add_onoff_session,
    read_target,
)
from repro.experiments.parallel import Cell, run_cells
from repro.net.topology import CROSS_ONE_HOP_ROUTES, build_paper_network
from repro.sched.edd import JitterEDD, edd_schedulable
from repro.sched.leave_in_time import LeaveInTime
from repro.units import T1_RATE_BPS, ms, to_ms

__all__ = ["RegulatorOutcome", "RegulatorComparisonResult", "cells",
           "run"]

#: Jitter-EDD local per-hop bounds: target rate-matched, cross just
#: above one cross-packet spacing. Schedulable iff cross honours its
#: x_min = 0.288 ms spacing.
TARGET_LOCAL = ms(13.8)
CROSS_LOCAL = ms(0.35)


@dataclass(frozen=True)
class RegulatorOutcome:
    discipline: str
    cross_kind: str
    packets: int
    mean_ms: float
    max_ms: float
    jitter_ms: float
    jitter_bound_ms: float

    @property
    def jitter_bound_holds(self) -> bool:
        return self.jitter_ms <= self.jitter_bound_ms + 1e-9


@dataclass
class RegulatorComparisonResult:
    duration: float
    seed: int
    outcomes: Dict[str, RegulatorOutcome]

    def outcome(self, discipline: str, cross_kind: str
                ) -> RegulatorOutcome:
        return self.outcomes[f"{discipline}/{cross_kind}"]

    def table(self) -> str:
        rows = [(o.discipline, o.cross_kind, o.packets, o.mean_ms,
                 o.max_ms, o.jitter_ms, o.jitter_bound_ms,
                 "yes" if o.jitter_bound_holds else "NO")
                for o in self.outcomes.values()]
        return format_table(
            ["discipline", "cross", "pkts", "mean(ms)", "max(ms)",
             "jitter(ms)", "jbound(ms)", "holds"],
            rows,
            title=f"Regulator comparison — LiT jitter control vs "
                  f"Jitter-EDD ({self.duration:.0f}s, seed {self.seed})")


def _edd_factory():
    local = {TARGET: TARGET_LOCAL}
    for label in CROSS_ONE_HOP_ROUTES:
        local[f"cross-{label}"] = CROSS_LOCAL
        local[f"det-{label}"] = CROSS_LOCAL
    return JitterEDD(local_delays=local)


def _cell(*, discipline: str, cross_kind: str, duration: float,
          seed: int) -> RegulatorOutcome:
    """One cell: the five-hop target under one (discipline, cross)."""
    factory = LeaveInTime if discipline == "leave-in-time" \
        else _edd_factory
    network = build_paper_network(factory, seed=seed)
    add_onoff_session(network, TARGET, FIVE_HOP, ms(650),
                      jitter_control=True)
    add_cross_traffic(network, deterministic=cross_kind == "conformant")
    network.run(duration)
    reading = read_target(network, TARGET)
    # Jitter-EDD: end-to-end jitter collapses to last-node variation,
    # bounded by the local delay bound there.
    bound_ms = reading.jitter_bound_ms if discipline == "leave-in-time" \
        else to_ms(TARGET_LOCAL)
    return RegulatorOutcome(
        discipline=discipline, cross_kind=cross_kind,
        packets=reading.packets, mean_ms=reading.mean_ms,
        max_ms=reading.max_ms, jitter_ms=reading.jitter_ms,
        jitter_bound_ms=bound_ms)


def cells(*, duration: float, seed: int) -> List[Cell]:
    """The declarative grid: discipline × cross-traffic kind."""
    return [Cell(label=f"regulator[{discipline}/{cross_kind}]",
                 fn=_cell,
                 kwargs={"discipline": discipline,
                         "cross_kind": cross_kind,
                         "duration": duration, "seed": seed})
            for discipline in ("leave-in-time", "jitter-edd")
            for cross_kind in ("conformant", "unpoliced")]


def run(*, duration: float = 30.0, seed: int = 0,
        workers: Optional[int] = 1) -> RegulatorComparisonResult:
    # Sanity: the EDD bounds are schedulable for conformant inputs.
    assert edd_schedulable(
        [(TARGET_LOCAL, PAPER_PACKET_BITS),
         (CROSS_LOCAL, PAPER_PACKET_BITS)], capacity=T1_RATE_BPS)
    outcomes: Dict[str, RegulatorOutcome] = {}
    for outcome in run_cells(cells(duration=duration, seed=seed),
                             workers=workers):
        outcomes[f"{outcome.discipline}/{outcome.cross_kind}"] = outcome
    return RegulatorComparisonResult(duration=duration, seed=seed,
                                     outcomes=outcomes)
