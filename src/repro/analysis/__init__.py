"""Measurement reduction (distributions, summaries, buffer statistics,
plain-text report tables) for the experiment harness, and the
static-analysis suite (:mod:`repro.analysis.front` and the ``lint`` /
``verify`` / ``det`` packs).  Import from the submodules.
"""
