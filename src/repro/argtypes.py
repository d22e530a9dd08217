"""argparse ``type=`` callables shared by the two console scripts."""

from __future__ import annotations

import argparse
import math

__all__ = ["positive_seconds", "positive_int"]


def positive_seconds(text: str) -> float:
    """A finite duration > 0 (``nan`` would never end)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """An integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value
