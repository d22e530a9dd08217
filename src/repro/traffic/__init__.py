"""Traffic sources and traffic-envelope utilities.

The three source models of the paper's Section 3 — ON-OFF (two-state
Markov-modulated), Poisson, and Deterministic, all fixed-length — plus
a trace-replay source, and token-bucket / (r,T)-smoothness utilities
used by the analytical bounds and the Stop-and-Go admission comparison.
A source is its gap process: a subclass of :class:`TrafficSource`
implements ``intervals()`` and nothing else; one whose packet lengths
vary sets ``length`` there. Ingress shaping is offline:
:func:`shape_arrivals` makes a trace token-bucket conformant and a
:class:`TraceSource` replays it.
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
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
