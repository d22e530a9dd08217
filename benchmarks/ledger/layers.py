"""File -> layer map and the cProfile join that turns a profile into layers.

A layer is a set of source files under ``src/repro``.  Self time is
``tottime``; time spent in C/builtin functions and in Python code outside
``src/repro`` (``random.py``, numpy) belongs to whichever layer called it,
so it is handed back along the ``pstats`` caller edges.  What cannot be
traced to a ``src/repro`` caller (the harness's own frames) lands in
``other``.

``repro.analysis.hot.profile.HotnessIndex`` is not reused here: it keeps
*cumulative* time per function for ranking lint findings, and layer shares
need self time plus the caller edges it throws away.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Dict, Optional, Tuple

OTHER = "other"

#: Order is the report order.  ``other`` is last and is not a named layer.
LAYERS = (
    "sim.kernel", "sim.process", "traffic", "net.node", "net.network",
    "net.session_table", "sched", "monitors", "admission", "experiments",
    OTHER,
)

#: Exact files first; a directory entry (trailing slash) catches the rest
#: of that package.  Paths are relative to ``src/repro``.
_FILES = {
    "sim/process.py": "sim.process",
    "sim/rng.py": "sim.process",
    "sim/monitor.py": "monitors",
    "sim/trace.py": "monitors",
    "net/sink.py": "monitors",
    "net/node.py": "net.node",
    "net/link.py": "net.node",
    "net/packet.py": "net.node",
    "net/session_table.py": "net.session_table",
}
_PACKAGES = {
    # kernel, events, backends; parallel.py is the kernel's barrier driver
    "sim/": "sim.kernel",
    "net/": "net.network",      # network, route, session, topology
    "sched/": "sched",
    "traffic/": "traffic",
    "admission/": "admission",
    "bounds/": "admission",
    "experiments/": "experiments",
}

#: Packages whose every file must map to a named layer (self-test).
COVERED_PACKAGES = tuple(name.rstrip("/") for name in _PACKAGES)

Func = Tuple[str, int, str]  # pstats key: (filename, lineno, funcname)


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a source file, or None when it is outside ``src/repro``'s
    layered packages (stdlib, numpy, builtins, the harness itself)."""
    parts = PurePosixPath(filename.replace("\\", "/")).parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    relative = "/".join(parts[index + 1:])
    if relative in _FILES:
        return _FILES[relative]
    for prefix, layer in _PACKAGES.items():
        if relative.startswith(prefix):
            return layer
    return None


def attribute(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats.stats`` into ``{layer: {self_s, calls}}``.

    ``calls`` counts calls of the layer's own Python functions only, so it
    repeats exactly for a fixed seed; handed-back builtin time moves
    ``self_s`` but never ``calls``.
    """
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    resolved: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, trail: Tuple[Func, ...]) -> Dict[str, float]:
        """Which layers a unit of ``func``'s self time belongs to."""
        if func in resolved:
            return resolved[func]
        own = layer_of_file(func[0])
        if own is not None:
            result = {own: 1.0}
        else:
            callers = {caller: edge[2]
                       for caller, edge in stats[func][4].items()
                       if caller in stats and caller not in trail}
            weight = sum(callers.values())
            result = {}
            if weight <= 0.0:
                result[OTHER] = 1.0
            else:
                for caller, tottime in callers.items():
                    for layer, share in shares(
                            caller, trail + (func,)).items():
                        result[layer] = (result.get(layer, 0.0)
                                         + share * tottime / weight)
        if not trail:
            resolved[func] = result
        return result

    for func, (_, ncalls, tottime, _, _) in stats.items():
        own = layer_of_file(func[0])
        if own is not None:
            totals[own]["calls"] += ncalls
        for layer, share in shares(func, ()).items():
            totals[layer]["self_s"] += tottime * share
    return totals


def call_count(stats: Dict[Func, tuple], file_suffix: str,
               funcname: str) -> int:
    """Total calls of the functions of that name defined in one file."""
    return sum(row[1] for (filename, _, name), row in stats.items()
               if name == funcname
               and filename.replace("\\", "/").endswith(file_suffix))


def python_calls(stats: Dict[Func, tuple]) -> int:
    """Calls of Python-level functions (builtins carry filename ``~``)."""
    return sum(row[1] for (filename, _, _), row in stats.items()
               if filename != "~")
