"""Process-pool sweep runner: shard (sweep-point × seed) cells.

Every Section-3 figure is a sweep — one fully isolated simulation per
(sweep point, seed) **cell** — so the sweep parallelizes perfectly: each
cell builds its own :class:`~repro.net.network.Network` with its own
seeded :class:`~repro.sim.rng.RandomStreams` and shares nothing with its
neighbours.  This module fans the cells out across worker processes and
merges the results **in cell order**, so the output is bit-identical to
running the same cells serially:

* ``workers=1`` (the default everywhere but the CLI) *is* the serial
  path — cells run in-process, in order, with no pool involved;
* ``workers=N`` runs up to N cells concurrently via ``multiprocessing``
  (through :class:`concurrent.futures.ProcessPoolExecutor`); results
  are collected positionally, never in completion order;
* a sweep with a single cell always runs in-process.

An experiment that is one simulation (Figures 8-13, call churn) is a
plain ``run`` call and returns live objects (networks, sinks) that
would not survive pickling.  A sweep module stays declarative: it
exposes a ``cells(...)`` builder returning ``[Cell(label, fn, kwargs),
...]`` where ``fn`` is a module-level function (picklable) returning
the cell's value, and its ``run(..., workers=N)`` hands the list to
:func:`run_cells` and merges the per-cell values into its result
dataclass.

A worker that dies (OOM-killed, segfaulted, ``os._exit``) surfaces as
:class:`~repro.errors.SimulationError` naming the first unfinished
cell — never as a hang.  Ordinary exceptions raised inside a cell
propagate unchanged, exactly as they would serially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import SimulationError

__all__ = [
    "Cell",
    "default_workers",
    "run_cells",
]


@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep: ``fn(**kwargs)`` in isolation.

    ``fn`` must be a module-level function (worker processes import it
    by qualified name) and ``kwargs`` must be picklable.  ``label``
    appears in error messages and diagnostics.
    """

    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)


def default_workers() -> int:
    """Every CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # no affinity mask (macOS, Windows)


def _run_pool(cells: List[Cell], workers: int) -> List[Any]:
    """Fan cells out over a process pool; collect in cell order."""
    # Imported where a pool is built: a serial run (every ledger child,
    # every ``workers=1`` sweep) never loads multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    context = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=context) as pool:
        futures = [pool.submit(cell.fn, **cell.kwargs) for cell in cells]
        values: List[Any] = []
        for cell, future in zip(cells, futures):
            try:
                values.append(future.result())
            except BrokenProcessPool as exc:
                raise SimulationError(
                    f"a parallel sweep worker process died while "
                    f"{len(cells)} cells were in flight (first "
                    f"unfinished cell: {cell.label!r}); rerun with "
                    f"workers=1 to reproduce serially") from exc
    return values


def run_cells(cells: Iterable[Cell], *,
              workers: Optional[int] = 1) -> List[Any]:
    """Run every cell and return their values in cell order.

    ``workers=None`` means :func:`default_workers`.  The effective
    worker count never exceeds the number of cells, and a single-cell
    (or single-worker) run executes in-process.
    """
    cell_list = list(cells)
    requested = default_workers() if workers is None \
        else max(1, int(workers))
    effective = min(requested, len(cell_list))
    if effective <= 1:
        return [cell.fn(**cell.kwargs) for cell in cell_list]
    return _run_pool(cell_list, effective)
