"""Guarded import of numpy, the optional ``[scale]`` extra.

The simulator — kernel, network, session table, schedulers, and every
experiment's simulation — is pure standard library.  numpy is needed
only by the analysis and figure helpers that post-process distributions
(histograms, M/D/1 comparisons, delay-bound CDFs), so pyproject ships
it as the optional ``[scale]`` extra rather than a hard dependency, and
nothing imports it until an array is actually needed.  Modules that
can work without it import the guarded binding::

    from repro.optdeps import np

and call :func:`require_numpy` at the top of the functions that
genuinely need arrays, which turns a bare ``ImportError`` at import
time into a clear, actionable :class:`~repro.errors.SimulationError`
at use time — the rest of the module (and the CLI that imports it)
stays importable.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.errors import SimulationError

__all__ = ["np", "load_numpy", "numpy_available", "require_numpy"]


class _LazyNumpy:
    """Stands in for numpy and imports it on first attribute use.

    numpy costs ~100 ms and ~12 MB to import, and a simulation run
    or a CLI start-up never touches an array.  Attributes are kept
    on the proxy, so each is resolved once.
    """

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            # Introspection (copy, inspect, pytest) must not import numpy.
            raise AttributeError(name)
        value = getattr(require_numpy(f"np.{name}"), name)
        setattr(self, name, value)
        return value


np: Any = _LazyNumpy()


def load_numpy() -> Any:
    """Import and return numpy, or None when it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def numpy_available() -> bool:
    """Whether the optional ``[scale]`` extra is installed (no import)."""
    if sys.modules.get("numpy") is not None:
        return True
    # importlib.util is itself a few ms; only this question needs it.
    from importlib.util import find_spec
    return find_spec("numpy") is not None


def require_numpy(feature: str) -> Any:
    """Return numpy, or raise a clear error naming ``feature``.

    Call at the top of any function that needs arrays; the message
    tells the user exactly what to install and (where one exists) the
    pure-Python alternative.
    """
    numpy = load_numpy()
    if numpy is None:
        raise SimulationError(
            f"{feature} requires numpy, which is not installed; "
            "install the optional extra (pip install 'repro[scale]')")
    return numpy
