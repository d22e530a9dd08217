"""Experiment harness: one module per paper figure plus the Section-4
analytic comparisons, the firewall-property experiment, and the
scaling, churn and fault studies. Each module exposes ``run(...)`` returning a result object
with a ``table()`` method printing the figure's rows, and the shared
paper constants live in :mod:`repro.experiments.common`."""

from repro import _lazy_exports

#: Public name -> defining module, imported on first use.
_EXPORTS = {
    "PAPER_PACKET_BITS": ".common",
    "PAPER_SPACING_S": ".common",
    "PAPER_A_ON_S": ".common",
    "PAPER_A_OFF_SWEEP_S": ".common",
    "PAPER_ONOFF_RATE_BPS": ".common",
    "build_mix_network": ".common",
    "add_onoff_session": ".common",
    "add_cross_traffic": ".common",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
