"""Self-tests of the ledger (not tier-1; they take about a minute).

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# Static: the layer map and the contract file
# ----------------------------------------------------------------------
def test_every_source_file_has_a_named_layer():
    unmapped = [
        str(path.relative_to(ROOT))
        for package in layers.COVERED_PACKAGES
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py"))
        if layers.layer_of_file(str(path)) in (None, layers.OTHER)]
    assert not unmapped


def test_files_outside_the_program_have_no_layer():
    assert layers.layer_of_file("/usr/lib/python3.11/random.py") is None
    assert layers.layer_of_file("~") is None
    assert layers.layer_of_file(str(LEDGER / "child.py")) is None


def test_builtin_time_goes_to_the_calling_layer():
    kernel = ("/x/src/repro/sim/kernel.py", 10, "run")
    node = ("/x/src/repro/net/node.py", 20, "receive")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    expo = ("/usr/lib/python3.11/random.py", 5, "expovariate")
    log = ("~", 0, "<built-in method math.log>")
    stats = {
        kernel: (1, 1, 1.0, 3.0, {}),
        node: (4, 4, 0.5, 0.5, {kernel: (4, 4, 0.5, 0.5)}),
        # three quarters of heappop's time was spent on the kernel's calls
        heappop: (8, 8, 0.4, 0.4, {kernel: (6, 6, 0.3, 0.3),
                                   node: (2, 2, 0.1, 0.1)}),
        # builtin under a stdlib function under the node: two edges up
        expo: (2, 2, 0.2, 0.3, {node: (2, 2, 0.2, 0.3)}),
        log: (2, 2, 0.1, 0.1, {expo: (2, 2, 0.1, 0.1)}),
    }
    totals = layers.attribute(stats)
    assert totals["sim.kernel"]["self_s"] == pytest.approx(1.0 + 0.3)
    assert totals["net.node"]["self_s"] == pytest.approx(
        0.5 + 0.1 + 0.2 + 0.1)
    assert totals["sim.kernel"]["calls"] == 1
    assert totals["net.node"]["calls"] == 4
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(
        sum(row[2] for row in stats.values()))
    assert layers.python_calls(stats) == 1 + 4 + 2


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # the driver's budget: 4 + 22 x workloads runs inside 3420 s
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 4) < 3420


def test_workloads_and_layers_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)
    declared = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        for suffix in ("self_s", "self_share", "calls_per_pkt_hop"):
            assert f"{layer}.{suffix}" in declared


def test_summarise_takes_the_best_three_in_the_metrics_direction():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.summarise(values, "lower")["value"] == pytest.approx(2.0)
    assert run.summarise(values, "higher")["value"] == pytest.approx(4.0)
    assert run.summarise(values, "lower")["median"] == 3.0
    assert run.summarise([7.0], "lower")["q3"] == 7.0


def test_child_environment_is_stripped(monkeypatch):
    for name in ("REPRO_KERNEL_BACKEND", "REPRO_STATE_BACKEND",
                 "REPRO_BENCH_JSON", "REPRO_BENCH_DIR"):
        monkeypatch.setenv(name, "x")
    env = run.child_env(None)
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONHASHSEED"] == "0"
    assert run.child_env("batch")["REPRO_KERNEL_BACKEND"] == "batch"


# ----------------------------------------------------------------------
# Dynamic: the smoke run and the driver form
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--smoke",
         "--out", str(out)], cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    return elapsed, done.stdout, json.loads(out.read_text())


def test_smoke_is_quick(smoke):
    elapsed, _, _ = smoke
    assert elapsed < 30.0


def test_smoke_emits_every_metric_by_name(smoke):
    _, printed, record = smoke
    for name in workloads.WORKLOADS:
        entry = record["workloads"][name]
        assert set(entry["end_to_end"]) == {
            m["name"] for m in SPEC["end_to_end"]}
        assert {m["name"] for m in SPEC["per_layer"]} <= set(
            entry["per_layer"])
        assert len(entry["digest"]) == 64
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["name"] in printed
    assert {"nproc", "python", "numpy", "git_rev"} <= set(
        record["environment"])


def test_smoke_checks_pass_and_the_profile_accounts_for_the_time(smoke):
    _, _, record = smoke
    # profile_accounts (layer self times within 2 % of the traced steady
    # wall) is one of the checks, so no failure means it held everywhere.
    assert record["checks"]["failed"] == 0, record["checks"]["failures"]
    assert record["checks"]["attempted"] > 0
    for entry in record["workloads"].values():
        shares = [value for name, value in entry["per_layer"].items()
                  if name.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)
        assert entry["per_layer"]["other.self_share"] <= 0.10


def test_each_workload_separates_the_layers_as_predicted(smoke):
    _, _, record = smoke
    layer = {name: entry["per_layer"]
             for name, entry in record["workloads"].items()}
    for name, metrics in layer.items():
        assert (metrics["admission.attempts"] > 0) == (name == "call_churn")
        assert (metrics["sched.held_share"] > 0) == (name == "mix_jitter")

    def source_share(name):
        return (layer[name]["traffic.self_share"]
                + layer[name]["sim.process.self_share"])

    assert source_share("heavy_1e4") > source_share("call_churn")
    assert (layer["heavy_1e5"]["experiments.construct_s"]
            >= 2.5 * layer["heavy_1e4"]["experiments.construct_s"])


def test_driver_form_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", "call_churn",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_driver_form_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "mix_onoff", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "missing" in done.stderr
