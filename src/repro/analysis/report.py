"""Plain-text tables for the experiment harness and benchmarks.

The benchmarks print "the same rows the paper reports"; these helpers
keep that output aligned and copy-paste friendly without pulling in a
plotting or table dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["format_table", "network_summary"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str | None = None) -> str:
    """Fixed-width table; column widths fit the widest cell."""
    materialized: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            cells.append(f"{value:.3f}" if isinstance(value, float)
                         else str(value))
        materialized.append(cells)
    widths = [len(h) for h in headers]
    for cells in materialized:
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in materialized:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def network_summary(network: "Network") -> str:
    """One-line-per-node health table for a finished (or paused) run.

    Columns: utilization, packets served, current backlog (queued or
    held at the scheduler), worst observed scheduler lateness, and
    total drops — the quick answer to "what did the network just do".
    """
    rows = []
    for name in sorted(network.nodes):
        node = network.nodes[name]
        lateness = node.scheduler.lateness
        rows.append((
            name,
            node.utilization(),
            node.packets_served,
            node.scheduler.backlog + (1 if node.transmitting else 0),
            (lateness.maximum or 0.0) * 1e3,
            sum(node.drops.values()),
        ))
    return format_table(
        ["node", "util", "served", "backlog", "lateness(ms)", "drops"],
        rows,
        title=f"Network summary at t={network.sim.now:.3f}s — "
              f"{len(network.sessions)} sessions, "
              f"{network.sim.events_dispatched} events")
