"""Section 4's analytic comparisons as tables.

Two results:

* the Stop-and-Go worked example (0.1·C session, frame T): delay and
  jitter bounds and the per-link delay increase of both schemes, for a
  range of connection lengths;
* the PGPS equality: for a token-bucket session under Leave-in-Time
  with procedure 1 / one class / d = L/r, eq. 15 equals the
  Parekh-Gallager bound (checked digit for digit per hop count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.report import format_table
from repro.bounds.comparisons import (
    StopAndGoComparison,
    compare_with_stop_and_go,
    pgps_delay_bound,
)
from repro.bounds.delay import (
    beta_constant,
    delay_bound,
    token_bucket_reference_delay,
)
from repro.units import to_ms

__all__ = ["Section4Result", "run"]


@dataclass(frozen=True)
class PgpsRow:
    hops: int
    lit_bound_ms: float
    pgps_bound_ms: float

    @property
    def equal(self) -> bool:
        return abs(self.lit_bound_ms - self.pgps_bound_ms) < 1e-9


@dataclass
class Section4Result:
    capacity: float
    frame: float
    stop_and_go: List[StopAndGoComparison] = field(default_factory=list)
    pgps: List[PgpsRow] = field(default_factory=list)

    def table(self) -> str:
        sg_rows = [(c.hops, to_ms(c.sg_delay_worst), to_ms(c.lit_delay),
                    to_ms(c.sg_jitter), to_ms(c.lit_jitter),
                    to_ms(c.sg_per_link), to_ms(c.lit_per_link))
                   for c in self.stop_and_go]
        pgps_rows = [(r.hops, r.lit_bound_ms, r.pgps_bound_ms,
                      "yes" if r.equal else "NO") for r in self.pgps]
        return "\n\n".join([
            format_table(
                ["hops", "S&G delay(ms)", "LiT delay(ms)",
                 "S&G jitter(ms)", "LiT jitter(ms)",
                 "S&G /link(ms)", "LiT /link(ms)"],
                sg_rows,
                title="Section 4 — Stop-and-Go vs Leave-in-Time "
                      "(0.1C session)"),
            format_table(
                ["hops", "LiT eq.15 (ms)", "PGPS (ms)", "equal"],
                pgps_rows,
                title="Section 4 — PGPS bound equality "
                      "(token-bucket session, d = L/r)"),
        ])


def run(*, capacity: float = 1.536e6, frame: float = 0.01,
        hop_range: Sequence[int] = (1, 2, 3, 5, 8, 10),
        bucket_depth: float = 424.0, rate: float = 32_000.0,
        l_max: float = 424.0) -> Section4Result:
    result = Section4Result(capacity=capacity, frame=frame)
    for hops in hop_range:
        result.stop_and_go.append(compare_with_stop_and_go(
            capacity=capacity, frame=frame, hops=hops))
        # PGPS equality for a (rate, bucket_depth) session, d = L/r.
        d_max = l_max / rate
        beta = beta_constant(l_max, [capacity] * hops, [0.0] * hops,
                             [d_max] * hops)
        lit = delay_bound(
            token_bucket_reference_delay(bucket_depth, rate), beta, 0.0)
        pgps = pgps_delay_bound(bucket_depth, rate, l_max, l_max,
                                [capacity] * hops)
        result.pgps.append(PgpsRow(hops=hops, lit_bound_ms=to_ms(lit),
                                   pgps_bound_ms=to_ms(pgps)))
    return result
