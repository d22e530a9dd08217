"""Whole-program semantic analysis + runtime conservation sanitizer.

Two coupled layers (see :doc:`docs/static_analysis` and
:doc:`docs/sanitizer`):

* **Static** — :mod:`.model` extracts per-file summaries and
  joins them into a :class:`~repro.analysis.verify.model.Program`
  (symbol table, call graph, dimension inference); :mod:`.rules` is
  the ``verify`` pack, four interprocedural rules over it, run by
  ``repro-analyze`` (:mod:`repro.analysis.front`).
* **Runtime** — :mod:`.sanitizer` reads a live simulation's trace
  (``--sanitize`` / ``REPRO_SANITIZE=1``), verifying per-node packet
  conservation, reservation sums, LiT label monotonicity and
  eligibility, at zero per-event cost of its own when disabled.

This ``__init__`` imports nothing, so a sanitized run (which imports
:mod:`.sanitizer`) does not compile the static analyzer.  Import from
the submodules.
"""
