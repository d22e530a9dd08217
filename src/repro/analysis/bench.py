"""Machine-readable performance telemetry: ``BENCH_<experiment>.json``.

Every sweep executed through :mod:`repro.experiments.parallel` produces
one :class:`BenchRecord` — wall time, events dispatched, events/sec,
worker count, simulated horizon, and the git revision — and hands it to
:func:`emit`.  Emission is off by default so test runs stay clean; it is
switched on by the CLI (every ``python -m repro`` run writes a record)
or by the ``REPRO_BENCH_JSON=1`` environment variable (the benchmark
suite's opt-in).  ``REPRO_BENCH_DIR`` redirects the output directory.

The JSON schema is flat and versioned::

    {
      "schema": 1,
      "experiment": "fig07",
      "wall_time_s": 12.34,
      "events_dispatched": 1234567,
      "events_per_sec": 100046.2,
      "workers": 4,
      "simulated_s": 140.0,
      "cells": 7,
      "git_rev": "d11f973",
      "deterministic": true,
      "partitions": 1,
      "peak_rss_bytes": 48234496,
      "sessions": null,
      "kernel_backend": "python"
    }

``deterministic`` is stamped by the ``repro-analyze --perturb`` differ
(true/false) and ``null`` for runs whose reproducibility was not
dynamically verified.

``peak_rss_bytes`` is the process's resident-set high-water mark
(``resource.getrusage``) at record-assembly time, stamped by every
run; ``null`` on platforms without ``resource``.  ``sessions`` is the
concurrent-session count for scale-sweep records (heavy traffic,
``repro.analysis.throughput --sessions``) and ``null`` for the
paper-scale experiments, whose session count is fixed by the MIX/CROSS
configuration.

``kernel_backend`` records which kernel drain loop ran: "compiled"
when the optional C extension is built (``make ckernel``) and the
sanitizer is off, "python" otherwise.  It is a fact about the run,
never a request.  Records from before the field was stamped carry
``null``, and older ones may say "batch" (a loop since deleted).

``simulated_s`` is the *total* simulated horizon across all cells of
the sweep (duration × cells for a uniform sweep), so
``simulated_s / wall_time_s`` is the aggregate real-time factor.

Records double as regression gates::

    python -m repro.analysis.bench compare OLD.json NEW.json \
        --max-regression 10

exits non-zero when NEW's events/sec fall more than the given
percentage below OLD's — CI fails the build instead of letting the
kernel quietly slow down.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

__all__ = [
    "SCHEMA_VERSION",
    "ENV_ENABLE",
    "ENV_DIR",
    "BenchRecord",
    "Stopwatch",
    "git_rev",
    "make_record",
    "write_record",
    "read_record",
    "configure",
    "emission_enabled",
    "output_directory",
    "emit",
    "compare_records",
    "main",
]

#: Version stamped into every record; bump on incompatible changes.
SCHEMA_VERSION = 1

#: Setting this environment variable to anything but ""/"0" turns
#: emission on without touching :func:`configure` (benchmark opt-in).
ENV_ENABLE = "REPRO_BENCH_JSON"

#: Output directory override; default is the current directory.
ENV_DIR = "REPRO_BENCH_DIR"

PathInput = Union[str, "os.PathLike[str]"]


@dataclass(frozen=True)
class BenchRecord:
    """One experiment run's perf telemetry (see the schema above)."""

    experiment: str
    wall_time_s: float
    events_dispatched: int
    events_per_sec: float
    workers: int
    simulated_s: float
    cells: int
    git_rev: str
    schema: int = SCHEMA_VERSION
    #: Verdict of the schedule-perturbation differ for this run:
    #: True/False when ``repro-analyze --perturb`` checked it, None when
    #: reproducibility was not dynamically verified.  Additive with a
    #: default, so schema-1 records (and readers) stay valid.
    deterministic: Optional[bool] = None
    #: Space-parallel shard count (:mod:`repro.sim.parallel`); 1 for
    #: serial runs and for cell-parallel sweeps (those shard *cells*
    #: across ``workers``, not one topology).  Additive default, same
    #: compatibility story as ``deterministic``.
    partitions: int = 1
    #: Resident-set high-water mark of the recording process in bytes,
    #: read from ``resource.getrusage`` when the record is assembled;
    #: None where the ``resource`` module is unavailable.  Additive
    #: default — schema-1 readers and old records stay valid.
    peak_rss_bytes: Optional[int] = None
    #: Concurrent sessions simulated, for scale-sweep records (the
    #: heavy-traffic experiment, ``throughput --sessions``); None for
    #: fixed-population experiments.  Additive default.
    sessions: Optional[int] = None
    #: Kernel drain loop that ran ("python" or "compiled"), stamped by
    #: :func:`make_record`; None in records that predate the stamp.
    #: Additive default — same compatibility story as
    #: ``deterministic``.
    kernel_backend: Optional[str] = None


class Stopwatch:
    """Real elapsed-time measurement, quarantined here on purpose.

    Simulation code is forbidden from reading the wall clock (the
    ``no-wallclock`` lint rule); perf telemetry is the one place that
    genuinely measures real time, so the suppressed calls live in this
    single class instead of being scattered across the runners.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()  # repro: disable=no-wallclock -- perf telemetry measures real elapsed time

    def elapsed(self) -> float:
        """Seconds of real time since construction."""
        return time.perf_counter() - self._start  # repro: disable=no-wallclock -- perf telemetry measures real elapsed time


def peak_rss_bytes() -> Optional[int]:
    """Resident-set high-water mark of this process in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; None on
    platforms without the ``resource`` module (Windows).  The value is
    a monotone high-water mark, so a record's RSS reflects the largest
    workload the process has run up to that point — scale sweeps that
    need per-point attribution run each point in a fresh process
    (:mod:`repro.experiments.heavy_traffic`).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(raw)
    return int(raw) * 1024


def git_rev() -> str:
    """Short git revision of the source tree, or ``"unknown"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def kernel_loop() -> str:
    """The drain loop this process's runs used.

    The C loop runs whenever ``repro.sim._ckernel`` is built, except
    under the sanitizer, which always takes the Python loop.
    """
    from repro.sim import kernel
    if kernel._ckernel is None:
        return "python"
    requested = os.environ.get("REPRO_SANITIZE")
    if requested:
        # Imported only here: the verify package is far heavier than
        # this module, and a sanitized run has loaded it already.
        from repro.analysis.verify.sanitizer import sanitize_enabled
        if sanitize_enabled(requested):
            return "python"
    return "compiled"


def make_record(experiment: str, *, wall_time_s: float,
                events_dispatched: int, workers: int,
                simulated_s: float, cells: int,
                deterministic: Optional[bool] = None,
                partitions: int = 1,
                peak_rss: Optional[int] = None,
                sessions: Optional[int] = None) -> BenchRecord:
    """Assemble a record, deriving events/sec, RSS, the kernel loop
    and the git rev.

    ``peak_rss`` overrides the stamped high-water mark — scale sweeps
    that measured RSS in a child process pass the child's value here.
    """
    rate = events_dispatched / wall_time_s if wall_time_s > 0 else 0.0
    return BenchRecord(
        experiment=experiment,
        wall_time_s=wall_time_s,
        events_dispatched=events_dispatched,
        events_per_sec=rate,
        workers=workers,
        simulated_s=simulated_s,
        cells=cells,
        git_rev=git_rev(),
        deterministic=deterministic,
        partitions=partitions,
        peak_rss_bytes=peak_rss if peak_rss is not None
        else peak_rss_bytes(),
        sessions=sessions,
        kernel_backend=kernel_loop(),
    )


def write_record(record: BenchRecord,
                 directory: Optional[PathInput] = None) -> Path:
    """Write ``BENCH_<experiment>.json``; return the path written."""
    target_dir = Path(directory) if directory is not None \
        else output_directory()
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / f"BENCH_{record.experiment}.json"
    with target.open("w", encoding="utf-8") as handle:
        json.dump(asdict(record), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def read_record(path: PathInput) -> BenchRecord:
    """Load a record written by :func:`write_record` (schema-checked)."""
    with Path(path).open(encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: BENCH schema {schema!r}, expected {SCHEMA_VERSION}")
    return BenchRecord(**payload)


# ----------------------------------------------------------------------
# Emission switch
# ----------------------------------------------------------------------
_enabled: bool = False
_directory: Optional[Path] = None


def configure(enabled: bool = True,
              directory: Optional[PathInput] = None) -> None:
    """Turn programmatic emission on/off and pin the output directory.

    Called by the CLI; tests reset with ``configure(enabled=False)``.
    """
    global _enabled, _directory
    _enabled = enabled
    _directory = Path(directory) if directory is not None else None


def emission_enabled() -> bool:
    """True when :func:`emit` should write (configure or env opt-in)."""
    if _enabled:
        return True
    return os.environ.get(ENV_ENABLE, "") not in ("", "0")


def output_directory() -> Path:
    """Where records land: configured dir, ``REPRO_BENCH_DIR``, or cwd."""
    if _directory is not None:
        return _directory
    env = os.environ.get(ENV_DIR)
    return Path(env) if env else Path(".")


def emit(record: BenchRecord) -> Optional[Path]:
    """Write ``record`` if emission is enabled; return the path or None."""
    if not emission_enabled():
        return None
    return write_record(record)


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def compare_records(old: BenchRecord, new: BenchRecord,
                    max_regression: float = 0.0,
                    max_rss_regression: Optional[float] = None
                    ) -> Tuple[bool, str]:
    """Throughput (and optional RSS) regression verdict plus a summary.

    Passes when ``new.events_per_sec`` is no more than
    ``max_regression`` percent below ``old.events_per_sec``.  Speedups
    always pass; the gate is one-sided on purpose — a faster kernel is
    never a failure.

    When ``max_rss_regression`` is given and both records carry
    ``peak_rss_bytes``, memory is gated symmetrically:
    ``new.peak_rss_bytes`` may exceed the old value by at most that
    percentage.  Shrinking always passes.  Records without an RSS
    stamp (pre-RSS baselines, platforms without ``resource``) skip the
    memory gate rather than failing it.
    """
    floor = old.events_per_sec * (1.0 - max_regression / 100.0)
    ok = new.events_per_sec >= floor
    if old.events_per_sec > 0:
        delta = 100.0 * (new.events_per_sec / old.events_per_sec - 1.0)
        change = f"{delta:+.1f}%"
    else:
        change = "n/a (zero baseline)"
    verdict = "OK" if ok else "REGRESSION"
    message = (f"{new.experiment}: {old.events_per_sec:,.0f} -> "
               f"{new.events_per_sec:,.0f} events/s ({change}); "
               f"floor {floor:,.0f} at max regression "
               f"{max_regression:g}%: {verdict}")
    if (max_rss_regression is not None
            and old.peak_rss_bytes and new.peak_rss_bytes):
        ceiling = old.peak_rss_bytes * (1.0 + max_rss_regression / 100.0)
        rss_ok = new.peak_rss_bytes <= ceiling
        rss_delta = 100.0 * (new.peak_rss_bytes / old.peak_rss_bytes
                             - 1.0)
        rss_verdict = "OK" if rss_ok else "REGRESSION"
        message += (f"; RSS {old.peak_rss_bytes / 1e6:,.1f} -> "
                    f"{new.peak_rss_bytes / 1e6:,.1f} MB "
                    f"({rss_delta:+.1f}%), ceiling "
                    f"{ceiling / 1e6:,.1f} MB at max regression "
                    f"{max_rss_regression:g}%: {rss_verdict}")
        ok = ok and rss_ok
    return ok, message


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis.bench compare OLD NEW [...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.bench",
        description="BENCH telemetry utilities")
    commands = parser.add_subparsers(dest="command", required=True)
    compare = commands.add_parser(
        "compare",
        help="gate NEW against OLD; exit 1 on a throughput regression")
    compare.add_argument("old", help="baseline BENCH_*.json")
    compare.add_argument("new", help="candidate BENCH_*.json")
    compare.add_argument(
        "--max-regression", type=float, default=0.0, metavar="PCT",
        help="tolerated events/sec drop in percent (default: 0)")
    compare.add_argument(
        "--max-rss-regression", type=float, default=None, metavar="PCT",
        help="also gate peak RSS: tolerated growth in percent "
             "(default: RSS not gated; records lacking an RSS stamp "
             "skip this gate)")
    args = parser.parse_args(argv)

    try:
        old = read_record(args.old)
        new = read_record(args.new)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if old.experiment != new.experiment:
        print(f"error: comparing different experiments "
              f"({old.experiment!r} vs {new.experiment!r})",
              file=sys.stderr)
        return 2
    ok, message = compare_records(old, new, args.max_regression,
                                  args.max_rss_regression)
    print(message)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
