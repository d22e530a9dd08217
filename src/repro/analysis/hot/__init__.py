"""Hot-path performance analysis: the ``hot`` pack.

:mod:`.rules` proves per-event costs — allocations, deep attribute
chains, scalar/dict probes, ``__dict__``-carrying instances, exception
control flow — inside the kernel-reachability closure, over the facts
:mod:`.model` extracts.  To see which of them cost real time, profile a
run (``leave-in-time <name> --profile``) or read the ledger's layer
table (``benchmarks/ledger``).
"""

from repro.analysis.hot.model import HotProgram, build_hot_program
from repro.analysis.hot.rules import HotRule

__all__ = [
    "build_hot_program",
    "HotProgram",
    "HotRule",
]
