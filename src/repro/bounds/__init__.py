"""Closed-form service guarantees (paper Section 2).

Every guarantee Leave-in-Time offers is a constant shift of a quantity
of the session's *reference server*:

* end-to-end delay bound (eq. 12 / eq. 15),
* end-to-end delay-distribution bound (eq. 16),
* end-to-end delay-jitter bound (eq. 17),
* per-node buffer-space bounds,

plus the M/D/1 waiting-time analysis used for the analytical curves of
Figures 9-11 and the Section-4 comparison arithmetic against
Stop-and-Go and PGPS.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first use.
_EXPORTS = {
    "SessionBounds": ".delay",
    "compute_session_bounds": ".delay",
    "delay_bound": ".delay",
    "beta_constant": ".delay",
    "alpha_constant": ".delay",
    "token_bucket_reference_delay": ".delay",
    "jitter_bound": ".jitter",
    "delta_max": ".jitter",
    "buffer_bound": ".buffer",
    "buffer_bounds_along_route": ".buffer",
    "provision_buffers": ".delay",
    "shifted_ccdf": ".distribution",
    "shifted_ccdf_function": ".distribution",
    "md1_wait_cdf": ".md1",
    "md1_wait_ccdf": ".md1",
    "md1_delay_ccdf": ".md1",
    "md1_mean_wait": ".md1",
    "pgps_delay_bound": ".comparisons",
    "compare_with_stop_and_go": ".comparisons",
    "StopAndGoComparison": ".comparisons",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
