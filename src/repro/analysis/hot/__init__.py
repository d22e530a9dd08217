"""Profile-guided hot-path performance analysis.

The static half (the ``hot`` pack, :mod:`.rules`) proves per-event
costs — allocations, deep attribute chains, scalar/dict probes,
``__dict__``-carrying instances, exception control flow — inside the
kernel-reachability closure; the dynamic half (``repro-analyze
--profile``, :mod:`.profile`) runs a shortened scenario under
``cProfile`` and ranks every finding by measured hotness so reports
lead with what costs real time.
"""

from repro.analysis.hot.core import build_hot_program
from repro.analysis.hot.model import HotProgram
from repro.analysis.hot.rules import HotRule

__all__ = [
    "build_hot_program",
    "HotProgram",
    "HotRule",
]
