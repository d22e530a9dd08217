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
from repro.bounds.delay import SessionBounds, compute_session_bounds
from repro.experiments.common import (
    add_onoff_session,
    add_poisson_cross_traffic,
    build_cross_network,
)
from repro.net.network import Network
from repro.optdeps import np
from repro.units import ms, to_ms

__all__ = ["Figure8Result", "run",
           "SESSION_NO_CONTROL", "SESSION_CONTROL"]

SESSION_NO_CONTROL = "onoff-nojc"
SESSION_CONTROL = "onoff-jc"
FIVE_HOP = ("n1", "n2", "n3", "n4", "n5")
A_OFF = ms(650)


@dataclass
class Figure8Result:
    duration: float
    seed: int
    network: Network
    bounds_no_control: SessionBounds
    bounds_control: SessionBounds

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def _sink(self, session_id: str):
        return self.network.sink(session_id)

    def jitter_ms(self, session_id: str) -> float:
        return to_ms(self._sink(session_id).jitter)

    def max_delay_ms(self, session_id: str) -> float:
        return to_ms(self._sink(session_id).max_delay)

    def mean_delay_ms(self, session_id: str) -> float:
        return to_ms(self._sink(session_id).delay.mean)

    def delay_histogram(self, session_id: str,
                        bin_ms: float = 1.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """The figure's per-session delay mass function (ms bins)."""
        sink = self._sink(session_id)
        edges, mass = histogram(sink.samples.values, ms(bin_ms))
        return edges * 1e3, mass

    def to_csv(self, path) -> None:
        """Write both sessions' delay histograms (1 ms bins) to CSV; a
        session with no samples has zero mass in every bin."""
        from repro.analysis.export import write_series_csv
        histograms = {
            session_id: self.delay_histogram(session_id)
            for session_id in (SESSION_NO_CONTROL, SESSION_CONTROL)
            if len(self._sink(session_id).samples)}
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
        for session_id, bounds in (
                (SESSION_NO_CONTROL, self.bounds_no_control),
                (SESSION_CONTROL, self.bounds_control)):
            sink = self._sink(session_id)
            rows.append((
                session_id, sink.received,
                to_ms(sink.delay.mean), to_ms(sink.max_delay),
                to_ms(sink.jitter), to_ms(bounds.jitter),
                to_ms(bounds.max_delay)))
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
    network = build_cross_network(seed=seed)
    no_control = add_onoff_session(
        network, SESSION_NO_CONTROL, FIVE_HOP, A_OFF,
        jitter_control=False, keep_samples=True,
        monitor_buffer=monitor_buffers)
    control = add_onoff_session(
        network, SESSION_CONTROL, FIVE_HOP, A_OFF,
        jitter_control=True, keep_samples=True,
        monitor_buffer=monitor_buffers)
    add_poisson_cross_traffic(network)
    network.run(duration)
    return Figure8Result(
        duration=duration,
        seed=seed,
        network=network,
        bounds_no_control=compute_session_bounds(network, no_control),
        bounds_control=compute_session_bounds(network, control),
    )
