"""Hot-path performance analysis: the ``hot`` pack.

:mod:`.rules` proves per-event costs — allocations, deep attribute
chains, scalar/dict probes, ``__dict__``-carrying instances, exception
control flow — inside the kernel-reachability closure, over the facts
:mod:`.model` extracts.  To see which of them cost real time, profile a
run (``leave-in-time <name> --profile``) or read the ledger's layer
table (``benchmarks/ledger``).

Nothing is imported here: the verify model imports :mod:`.model` for
its scanner, and :mod:`.rules` imports the verify model.
"""
