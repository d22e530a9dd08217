"""Command-line entry point: regenerate any paper figure or table.

Examples::

    leave-in-time figure07 --duration 20
    leave-in-time figure09 --duration 60 --seed 3
    leave-in-time section4
    leave-in-time all --duration 10        # quick pass over everything
    leave-in-time figure07 --workers 4     # shard the sweep
    python -m repro figure08               # equivalent module form

Durations default to laptop-friendly values; pass ``--full`` for the
paper's 5- or 10-minute horizons (slow in pure Python). Sweeps shard
their cells across ``--workers`` processes (default: every core this
process may run on); the merged tables are bit-identical to a serial
run. A run writes nothing but the ``--csv`` files it was asked for.
To profile a run, ``python -m cProfile -s cumulative -m repro figure07
--workers 1``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import Dict, Optional

from repro.analysis.verify.sanitizer import SanitizerError
from repro.argtypes import positive_int, positive_seconds
from repro.errors import ConfigurationError
from repro.experiments.parallel import default_workers

__all__ = ["main", "build_parser"]

#: Experiment name -> paper duration.  An experiment is the module
#: ``repro.experiments.<name>``, imported when it runs; its ``run``
#: accepts duration/seed.
_SIMULATED: Dict[str, float] = {
    "figure07": 300.0,
    "figure08": 600.0,
    "figure09": 600.0,
    "figure10": 600.0,
    "figure11": 600.0,
    "figure12_13": 600.0,
    "figure14_17": 300.0,
    "fault_sweep": 60.0,
    "firewall": 60.0,
    "heavy_traffic": 20.0,
    "hop_scaling": 60.0,
    "call_churn": 300.0,
    "md1_validation": 600.0,
    "saturation": 120.0,
    "regulator_comparison": 120.0,
}

#: Purely analytic experiments (no duration/seed).
_ANALYTIC = ("section4",)


def _runner(name: str):
    """The ``run`` of experiment ``name``, importing its module."""
    return import_module(f"repro.experiments.{name}").run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leave-in-time",
        description="Reproduce the figures and tables of Figueira & "
                    "Pasquale, 'Leave-in-Time' (SIGCOMM '95).")
    choices = sorted(_SIMULATED) + sorted(_ANALYTIC) + ["all"]
    parser.add_argument("experiment", choices=choices,
                        help="which figure/table to regenerate")
    parser.add_argument("--duration", type=positive_seconds,
                        default=None,
                        help="simulated seconds (default: quick preset)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master RNG seed")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full run durations")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write plot-ready CSV files into DIR "
                             "(for experiments that support export)")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="processes to shard sweep cells across "
                             "(default: every core this process may "
                             "run on); results are identical at any "
                             "worker count")
    parser.add_argument("--sanitize", action="store_true",
                        help="install runtime conservation-law checkers "
                             "(packet conservation, reservation sums, "
                             "LiT label monotonicity); equivalent to "
                             "REPRO_SANITIZE=1; violations abort with "
                             "a JSON report")
    return parser


def _run_simulated(name: str, duration: Optional[float], seed: int,
                   full: bool, csv_dir: Optional[str],
                   workers: Optional[int]) -> None:
    """Run ``name`` and print its table, then export it: a failed
    export must not cost a finished run its table."""
    runner = _runner(name)
    if duration is None:
        duration = _SIMULATED[name] if full else None
    kwargs: Dict[str, object] = {"seed": seed}
    if duration is not None:
        kwargs["duration"] = duration
    # Not every runner shards (and tests monkeypatch plain fakes in).
    parameters = inspect.signature(runner).parameters
    if "workers" in parameters:
        kwargs["workers"] = workers
    result = runner(**kwargs)
    print(result.table())
    _maybe_export(name, result, csv_dir)


def _maybe_export(name: str, result, csv_dir: Optional[str]) -> None:
    """Write ``DIR/<name>.csv``: the result's own ``to_csv``, else its
    ``rows`` (dataclasses, one line each), else nothing."""
    if csv_dir is None:
        return
    target = Path(csv_dir) / f"{name}.csv"
    to_csv = getattr(result, "to_csv", None)
    if to_csv is not None:
        to_csv(target)
    elif getattr(result, "rows", None) is not None:
        # Imported on export only: ``import repro.cli`` stays small.
        from repro.analysis.export import write_rows_csv
        write_rows_csv(target, result.rows)
    else:
        return
    print(f"[csv written to {target}]")


def _input_error(message: str) -> int:
    """One line on stderr, exit status 2 (argparse's convention)."""
    print(f"leave-in-time: error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    workers = args.workers if args.workers is not None \
        else default_workers()
    if args.csv is not None:
        # Before the first experiment, not after it: an unwritable
        # directory must not cost a finished run its table.
        try:
            Path(args.csv).mkdir(parents=True, exist_ok=True)
        except OSError as error:
            return _input_error(
                f"--csv: cannot create directory {args.csv!r}: {error}")
        if not os.access(args.csv, os.W_OK):
            return _input_error(
                f"--csv: directory {args.csv!r} is not writable")
    if args.sanitize:
        # The env var (not a threaded parameter) is the switch so the
        # parallel runner's pool workers — which inherit the
        # environment — sanitize their shards too.
        os.environ["REPRO_SANITIZE"] = "1"
    names = (sorted(_SIMULATED) + sorted(_ANALYTIC)
             if args.experiment == "all" else [args.experiment])
    for name in names:
        if name in _ANALYTIC:
            print(_runner(name)().table())
        else:
            try:
                _run_simulated(name, args.duration, args.seed, args.full,
                               args.csv, workers)
            except SanitizerError as error:
                print(f"[sanitize] {name}: VIOLATIONS", file=sys.stderr)
                print(error.report_json, file=sys.stderr)
                return 1
            except ConfigurationError as error:
                return _input_error(str(error))
            if args.sanitize:
                print(f"[sanitize] {name}: clean")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
