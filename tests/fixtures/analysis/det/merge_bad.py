"""BAD: the run_cells aggregation path iterates unordered containers."""

from typing import Dict, Set

from repro.experiments.parallel import Cell, run_cells


def _cell(point):
    return {"point": point, "value": point * 2.0}


def _labels(index: Dict[str, int]):
    return [label for label in index]


def cells(points):
    return [Cell(label=str(point), fn=_cell, kwargs={"point": point})
            for point in points]


def run(points, extras: Set[str], totals: Dict[str, float]):
    rows = list(run_cells(cells(points)))
    for extra in extras:
        rows.append(extra)
    rows.extend(_labels(totals))
    return rows
