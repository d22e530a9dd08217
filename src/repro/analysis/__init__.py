"""Measurement reduction: distributions, summaries, buffer statistics,
and plain-text report tables for the experiment harness.

The re-exports resolve lazily (PEP 562): ``repro.analysis.confidence``
pulls in scipy, which costs more wall time than a whole warm analyzer
run — and the static-analysis suite (``repro.analysis.front`` and the
``lint`` / ``verify`` / ``det`` / ``hot`` packs, all pure stdlib)
lives under this package, so an eager import here would tax every
``repro-analyze`` invocation with a dependency it never touches.
"""

import importlib
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover - static imports for type-checkers
    from repro.analysis.buffers import (
        BufferDistribution,
        buffer_distribution,
    )
    from repro.analysis.confidence import ConfidenceInterval, batch_means
    from repro.analysis.export import (
        write_ccdf_csv,
        write_rows_csv,
        write_series_csv,
    )
    from repro.analysis.per_hop import HopBreakdown, per_hop_delays
    from repro.analysis.histogram import (
        ccdf_at,
        empirical_ccdf,
        empirical_cdf,
        histogram,
        tail_percentile,
    )
    from repro.analysis.report import (
        format_row,
        format_table,
        network_summary,
    )
    from repro.analysis.stats import DelaySummary

_EXPORTS: Dict[str, str] = {
    "BufferDistribution": "buffers",
    "buffer_distribution": "buffers",
    "ConfidenceInterval": "confidence",
    "batch_means": "confidence",
    "write_ccdf_csv": "export",
    "write_rows_csv": "export",
    "write_series_csv": "export",
    "HopBreakdown": "per_hop",
    "per_hop_delays": "per_hop",
    "ccdf_at": "histogram",
    "empirical_ccdf": "histogram",
    "empirical_cdf": "histogram",
    "histogram": "histogram",
    "tail_percentile": "histogram",
    "format_row": "report",
    "format_table": "report",
    "network_summary": "report",
    "DelaySummary": "stats",
}

__all__ = [
    "empirical_ccdf",
    "empirical_cdf",
    "ccdf_at",
    "histogram",
    "tail_percentile",
    "DelaySummary",
    "BufferDistribution",
    "buffer_distribution",
    "format_table",
    "format_row",
    "batch_means",
    "ConfidenceInterval",
    "write_series_csv",
    "write_rows_csv",
    "write_ccdf_csv",
    "per_hop_delays",
    "HopBreakdown",
    "network_summary",
]


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
