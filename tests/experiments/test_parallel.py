"""The parallel sweep runner: determinism, merging, crash handling."""

import os

import pytest

from repro.errors import SimulationError
from repro.experiments import figure07
from repro.experiments.parallel import Cell, default_workers, run_cells
from repro.units import ms


# ----------------------------------------------------------------------
# Module-level cell functions (worker processes import these by name).
# ----------------------------------------------------------------------
def _square(*, x: int) -> int:
    return x * x


def _plain(*, x: int) -> int:
    return x + 1


def _crash() -> int:  # pragma: no cover - runs in a worker
    os._exit(1)


def _unpicklable():
    return lambda: 42


class TestRunCells:
    def test_serial_preserves_cell_order(self):
        cells = [Cell(label=f"c{x}", fn=_square, kwargs={"x": x})
                 for x in (3, 1, 2)]
        assert run_cells(cells, workers=1) == [9, 1, 4]

    def test_parallel_preserves_cell_order(self):
        cells = [Cell(label=f"c{x}", fn=_square, kwargs={"x": x})
                 for x in (3, 1, 2)]
        assert run_cells(cells, workers=3) == [9, 1, 4]

    def test_plain_return_values_are_wrapped(self):
        # A cell's return value *is* the sweep's value: no wrapper type.
        cells = [Cell(label="p", fn=_plain, kwargs={"x": 1})]
        assert run_cells(cells) == [2]

    def test_single_cell_runs_in_process_even_with_workers(self):
        # Single-run experiments return live objects (networks) that
        # cannot cross a process boundary; one cell never uses the pool.
        cells = [Cell(label="live", fn=_unpicklable)]
        (value,) = run_cells(cells, workers=4)
        assert value() == 42

    def test_empty_sweep(self):
        assert run_cells([]) == []

    def test_worker_crash_raises_not_hangs(self):
        cells = [Cell(label="boom", fn=_crash)]
        # Two cells so the pool path actually engages.
        cells.append(Cell(label="ok", fn=_square, kwargs={"x": 2}))
        with pytest.raises(SimulationError) as excinfo:
            run_cells(cells, workers=2)
        message = str(excinfo.value)
        assert "worker process died" in message
        assert "workers=1" in message

    def test_default_workers_is_at_least_one(self):
        assert default_workers() >= 1

    def test_default_workers_honours_cpu_affinity(self, monkeypatch):
        # A 2-CPU taskset / cpuset on a 64-core host: os.cpu_count()
        # says 64 and used to fork 63 workers for `figure07`.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 7},
                            raising=False)
        assert default_workers() == 2
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        assert default_workers() == 8

    def test_workers_none_uses_default(self):
        cells = [Cell(label="c", fn=_square, kwargs={"x": 2})]
        assert run_cells(cells, workers=None) == [4]


class TestFigure7Determinism:
    """workers=1 and workers=4 must merge to bit-identical tables."""

    A_OFF = [ms(6.5), ms(650)]

    @pytest.fixture(scope="class")
    def serial(self):
        return figure07.run(duration=2.0, seed=5,
                            a_off_values=self.A_OFF, workers=1)

    def test_parallel_matches_serial(self, serial):
        parallel = figure07.run(duration=2.0, seed=5,
                                a_off_values=self.A_OFF, workers=4)
        assert parallel.rows == serial.rows
        assert parallel.table() == serial.table()

    def test_rows_follow_sweep_order(self, serial):
        assert [row.a_off_ms for row in serial.rows] == pytest.approx(
            [6.5, 650.0])
