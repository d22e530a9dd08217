"""Host-side measurement helpers: real time, peak RSS, git revision.

Nothing here records or compares a performance number: that is the
ledger's job (``BENCHMARK.json``, ``benchmarks/ledger/``, ``make ab``),
which imports :func:`peak_rss_bytes` and :func:`git_rev` from this
module.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

__all__ = ["Stopwatch", "peak_rss_bytes", "git_rev"]


class Stopwatch:
    """Real elapsed-time measurement, quarantined here on purpose.

    Simulation code is forbidden from reading the wall clock (the
    ``no-wallclock`` lint rule); the few tables with a wall-clock
    column genuinely measure real time, so the suppressed calls live in
    this single class instead of being scattered across the runners.
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
    a monotone high-water mark, so a reading reflects the largest
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
