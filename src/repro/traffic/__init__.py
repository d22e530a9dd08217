"""Traffic sources and traffic-envelope utilities.

The three source models of the paper's Section 3 — ON-OFF (two-state
Markov-modulated), Poisson, and Deterministic — plus a trace-replay
source for tests, and token-bucket / (r,T)-smoothness utilities used by
the analytical bounds and the Stop-and-Go admission comparison.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first use.
_EXPORTS = {
    "TrafficSource": ".base",
    "OnOffSource": ".onoff",
    "PoissonSource": ".poisson",
    "DeterministicSource": ".deterministic",
    "TraceSource": ".trace_source",
    "TokenBucket": ".token_bucket",
    "is_conformant": ".token_bucket",
    "is_rt_smooth": ".token_bucket",
    "shape_arrivals": ".token_bucket",
    "FixedLength": ".lengths",
    "UniformLength": ".lengths",
    "ChoiceLength": ".lengths",
    "BimodalLength": ".lengths",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
