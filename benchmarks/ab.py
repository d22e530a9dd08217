"""A/B a base revision against the working tree with the ledger's driver form.

    python benchmarks/ab.py --base REV [--workloads a,b] [--pairs 10]
                            [--seconds 20] [--scratch DIR]

Clones ``REV`` into ``DIR/base``, then for every workload runs

    python3 benchmarks/ledger/run.py --workload W --seed i --seconds S --trace 0

once in the clone and once here for ``i = 0 .. pairs-1``, alternating
which side goes first, and prints per end-to-end metric both medians, the
base's inter-quartile range, the change in per cent, the pairs the change
won (ties count for neither side) and a verdict by the rule a perf PR is
held to: a *gain* needs nine tenths of the pairs and a median difference
larger than the base's own IQR; a *regression* is a median worse by more
than the metric's ``bound`` in ``BENCHMARK.json``; a metric whose base IQR
exceeds that bound is *unresolved* unless every run of the change beats
every run of the base.  Each side runs its own checkout's
``benchmarks/ledger`` (the directory is frozen, so they are the same
code).  Every run made is written to ``DIR/ab_<workload>.json``.

Both sides run under ``PYTHONDONTWRITEBYTECODE=1`` and compile every
module from source: the fresh clone has no bytecode cache, so a working
tree holding one would read a ``setup_s`` / ``peak_rss_mb`` gain it did
not earn.  ``ab.py`` refuses to start while ``src/`` or ``benchmarks/``
here holds a ``__pycache__``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
DRIVER = Path("benchmarks") / "ledger" / "run.py"


def clone(rev: str, dest: Path) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    subprocess.run(["git", "clone", "-q", "--no-hardlinks", str(ROOT),
                    str(dest)], check=True)
    subprocess.run(["git", "-C", str(dest), "checkout", "-q", "--detach",
                    rev], check=True)


def drive(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One driver-form run in ``tree``; the JSON object it prints last."""
    done = subprocess.run(
        [sys.executable, str(DRIVER), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if done.returncode != 0:
        sys.exit(f"ab: {tree / DRIVER} failed on {workload} seed {seed}:\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> Dict[str, object]:
    sign = -1.0 if better == "lower" else 1.0   # sign * x: higher is better
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    change_median = statistics.median(change)
    iqr = q3 - q1
    shift = sign * (change_median - base_median)
    limit = bound * abs(base_median)
    if won >= 0.9 * len(base) and shift > iqr:
        call = "gain"
    elif -shift > limit:
        call = "REGRESSION"
    elif iqr > limit and not (min(sign * c for c in change)
                              > max(sign * b for b in base)):
        call = "unresolved"
    else:
        call = "within bound"
    return {"base_median": base_median, "change_median": change_median,
            "base_iqr": iqr, "won": won, "verdict": call,
            "change_pct": (100.0 * (change_median - base_median)
                           / base_median if base_median else 0.0)}


def compare(workload: str, base_tree: Path, pairs: int, seconds: float,
            spec: dict, scratch: Path) -> bool:
    runs = {"base": [], "change": []}
    trees = {"base": base_tree, "change": ROOT}
    for seed in range(pairs):
        order = ("base", "change") if seed % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(drive(trees[side], workload, seed, seconds))
        print(f"  {workload}: pair {seed + 1}/{pairs} done", file=sys.stderr)
    (scratch / f"ab_{workload}.json").write_text(json.dumps(runs, indent=1))

    print(f"\n{workload}  ({pairs} pairs, --seconds {seconds:g})")
    print(f"  {'metric':<20}{'base med':>12}{'change med':>12}"
          f"{'base IQR':>11}{'change':>9}{'won':>7}  verdict")
    regressed = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in rows]
                  for side, rows in runs.items()}
        row = verdict(values["base"], values["change"], metric["better"],
                      metric["bound"])
        regressed |= row["verdict"] == "REGRESSION"
        print(f"  {name:<20}{row['base_median']:>12.5g}"
              f"{row['change_median']:>12.5g}{row['base_iqr']:>11.3g}"
              f"{row['change_pct']:>+8.1f}%{row['won']:>4}/{pairs:<2}"
              f"  {row['verdict']}")
    for side, rows in runs.items():
        failed = sum(run["failed"] for run in rows)
        attempted = sum(run["attempted"] for run in rows)
        regressed |= failed > 0
        print(f"  {side}: failed {failed}/{attempted} attempted")
    return regressed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated; default: all of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--scratch", type=Path,
                        default=Path("/tmp/repro-ab"))
    args = parser.parse_args()
    chosen = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {names}")
    if any((ROOT / "src" / "repro" / "sim").glob("_ckernel*.so")):
        parser.error("src/repro/sim/_ckernel*.so is built here and would "
                     "not be in the base clone; remove it first")
    caches = [path for top in ("src", "benchmarks")
              for path in (ROOT / top).rglob("__pycache__")]
    if caches:
        parser.error(f"{len(caches)} __pycache__ directories here (first: "
                     f"{caches[0].relative_to(ROOT)}) would not be in the "
                     "base clone; remove them first:\n"
                     "  find src benchmarks -name __pycache__ -prune "
                     "-exec rm -rf {} +")
    args.scratch.mkdir(parents=True, exist_ok=True)
    base_tree = args.scratch / "base"
    clone(args.base, base_tree)
    regressed = False
    for workload in chosen:
        regressed |= compare(workload, base_tree, args.pairs, args.seconds,
                             spec, args.scratch)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
