"""Figure 8: delay distributions with and without jitter control.

CROSS configuration: two five-hop 32 kbit/s ON-OFF sessions with
``a_OFF = 650 ms`` — one with delay-jitter control, one without — and
Poisson cross traffic (1472 kbit/s reserved, a_P = 0.28804 ms) on every
one-hop route. The paper measures a jitter reduction from 59.7 ms
(bound 66.25 ms) to 12.4 ms (bound 13.25 ms), with the controlled
session's delays concentrated near the delay bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.histogram import histogram
from repro.analysis.report import format_table
from repro.experiments.common import (
    FIVE_HOP,
    add_cross_traffic,
    add_onoff_session,
    read_target,
)
from repro.net.network import Network
from repro.net.topology import build_paper_network
from repro.optdeps import np
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ms

__all__ = ["Figure8Result", "run",
           "SESSION_NO_CONTROL", "SESSION_CONTROL"]

SESSION_NO_CONTROL = "onoff-nojc"
SESSION_CONTROL = "onoff-jc"
A_OFF = ms(650)


@dataclass
class Figure8Result:
    duration: float
    seed: int
    network: Network

    def delay_histogram(self, session_id: str,
                        bin_ms: float = 1.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """The figure's per-session delay mass function (ms bins)."""
        samples = self.network.sink(session_id).samples
        edges, mass = histogram(samples, ms(bin_ms))
        return edges * 1e3, mass

    def to_csv(self, path) -> None:
        """Write both sessions' delay histograms (1 ms bins) to CSV; a
        session with no samples has zero mass in every bin."""
        from repro.analysis.export import write_series_csv
        histograms = {
            session_id: self.delay_histogram(session_id)
            for session_id in (SESSION_NO_CONTROL, SESSION_CONTROL)
            if self.network.sink(session_id).samples}
        # Align the histograms on a common grid.
        low = min((edges[0] for edges, _ in histograms.values()),
                  default=0.0)
        high = max((edges[-1] for edges, _ in histograms.values()),
                   default=0.0)
        grid = np.arange(low, high + 0.5, 1.0)

        def on_grid(session_id):
            out = np.zeros(len(grid))
            if session_id in histograms:
                edges, mass = histograms[session_id]
                out[np.rint(edges - low).astype(int)] = mass
            return out

        write_series_csv(path, {
            "delay_ms": grid,
            "mass_no_control": on_grid(SESSION_NO_CONTROL),
            "mass_with_control": on_grid(SESSION_CONTROL),
        })

    def table(self) -> str:
        rows = []
        for session_id in (SESSION_NO_CONTROL, SESSION_CONTROL):
            r = read_target(self.network, session_id)
            rows.append((session_id, r.packets, r.mean_ms, r.max_ms,
                         r.jitter_ms, r.jitter_bound_ms, r.bound_ms))
        return format_table(
            ["session", "pkts", "mean(ms)", "max(ms)", "jitter(ms)",
             "jbound(ms)", "dbound(ms)"],
            rows,
            title=f"Figure 8 — jitter control, CROSS + Poisson cross "
                  f"({self.duration:.0f}s, seed {self.seed})")


def run(*, duration: float = 60.0, seed: int = 0,
        monitor_buffers: bool = False) -> Figure8Result:
    """Run the Figure-8 experiment (also the base of Figures 12-13).

    ``monitor_buffers=True`` additionally samples the two target
    sessions' buffer occupancy at every node.  The result holds the
    live network.
    """
    network = build_paper_network(LeaveInTime, seed=seed)
    for session_id, jitter_control in ((SESSION_NO_CONTROL, False),
                                       (SESSION_CONTROL, True)):
        add_onoff_session(network, session_id, FIVE_HOP, A_OFF,
                          jitter_control=jitter_control,
                          keep_samples=True,
                          monitor_buffer=monitor_buffers)
    add_cross_traffic(network)
    network.run(duration)
    return Figure8Result(duration=duration, seed=seed, network=network)
