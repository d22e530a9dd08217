"""fault_sweep: structure, isolation story, and shard bit-identity."""

import pytest

from repro.cli import _maybe_export
from repro.experiments import fault_sweep


@pytest.fixture(scope="module")
def result():
    return fault_sweep.run(duration=3.0, seed=0, outages=(0.0, 0.8))


def test_sweep_shape(result):
    assert [(r.discipline, r.outage_s) for r in result.rows] == [
        ("leave-in-time", 0.0), ("leave-in-time", 0.8),
        ("fcfs", 0.0), ("fcfs", 0.8)]


def test_lit_holds_its_bound_through_the_flap(result):
    assert result.bounds_hold("leave-in-time")
    for row in result.rows:
        if row.discipline == "leave-in-time":
            assert row.deadline_misses == 0


def test_fault_cells_actually_faulted(result):
    by_key = {(r.discipline, r.outage_s): r for r in result.rows}
    # The baseline cells saw no cross drops; the flap cells lost cross
    # packets to the post-recovery loss window.
    assert by_key[("leave-in-time", 0.0)].cross_dropped == 0
    assert by_key[("leave-in-time", 0.8)].cross_dropped > 0
    assert by_key[("fcfs", 0.8)].cross_dropped > 0


def test_baseline_cells_identical_across_disciplines_is_false(result):
    # Sanity: the two disciplines genuinely differ (different schedules
    # produce different delay statistics even fault-free).
    by_key = {(r.discipline, r.outage_s): r for r in result.rows}
    assert by_key[("leave-in-time", 0.0)] != by_key[("fcfs", 0.0)]


def test_workers_shard_is_bit_identical(result):
    sharded = fault_sweep.run(duration=3.0, seed=0,
                              outages=(0.0, 0.8), workers=4)
    assert sharded.rows == result.rows


def test_cells_are_declarative():
    cells = fault_sweep.cells(duration=1.0, seed=3, outages=(0.5,))
    assert [c.label for c in cells] == [
        "fault[leave-in-time,outage=0.5s]", "fault[fcfs,outage=0.5s]"]
    for cell in cells:
        assert cell.kwargs["seed"] == 3


def test_table_renders(result):
    text = result.table()
    assert "Fault sweep" in text
    assert "leave-in-time" in text


def test_csv_export(result, tmp_path):
    _maybe_export("fault_sweep", result, tmp_path)
    content = (tmp_path / "fault_sweep.csv").read_text()
    assert "discipline" in content and "fcfs" in content
