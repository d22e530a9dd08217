"""Determinism & parallel-safety analysis (see :doc:`docs/determinism`).

* **Static** — :mod:`.rules` is the ``det`` pack: ``unordered-merge``
  over the same per-file summaries and call graph as the
  ``verify`` pack, run by ``repro-analyze``.
* **Dynamic** — :mod:`.perturb` reruns a scenario under shuffled
  tie-break order, shuffled session registration and ``workers=1`` vs
  ``workers=N``, diffing observables and traces and minimizing any
  divergence to the first differing event (``repro-analyze --perturb``).

Nothing is imported here: the differ pulls the experiment stack, which
the static path must not pay for.
"""
