"""numpy, imported on first use.

The simulator — kernel, network, session table, schedulers, and every
experiment's simulation — is pure standard library.  numpy is needed
only by the analysis and figure helpers that post-process distributions
(histograms, M/D/1 comparisons, delay-bound CDFs), and it costs
~100 ms and ~12 MB to import, so those modules bind the proxy::

    from repro.optdeps import np

and a simulation run or a CLI start-up, which never touches an array,
never loads it.
"""

from __future__ import annotations

from typing import Any

__all__ = ["np"]


class _LazyNumpy:
    """Stands in for numpy and imports it on first attribute use.

    Attributes are kept on the proxy, so each is resolved once.
    """

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            # Introspection (copy, inspect, pytest) must not import numpy.
            raise AttributeError(name)
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np: Any = _LazyNumpy()
