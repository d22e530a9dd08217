"""Route naming for the paper's Figure-6 topology.

The paper identifies routes by entrance/exit letter pairs: entrances
``a``-``e`` feed server nodes 1-5 and exits ``f``-``j`` drain them, so
route ``a-j`` traverses all five servers and ``b-g`` only server 2.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError

__all__ = ["ENTRANCES", "EXITS", "route_from_letters"]

#: Entrance letters in node order: traffic entering at ENTRANCES[k]
#: first visits node k+1.
ENTRANCES = ("a", "b", "c", "d", "e")

#: Exit letters in node order: traffic exiting at EXITS[k] leaves after
#: being served by node k+1.
EXITS = ("f", "g", "h", "i", "j")


def node_name(index: int) -> str:
    """Canonical name of server node ``index`` (1-based, as in the paper)."""
    return f"n{index}"


def route_from_letters(entrance: str, exit_: str) -> List[str]:
    """Expand a letter pair like ``("a", "j")`` into node names.

    >>> route_from_letters("a", "j")
    ['n1', 'n2', 'n3', 'n4', 'n5']
    >>> route_from_letters("b", "g")
    ['n2']
    """
    if entrance not in ENTRANCES:
        raise ConfigurationError(f"unknown entrance {entrance!r}")
    if exit_ not in EXITS:
        raise ConfigurationError(f"unknown exit {exit_!r}")
    first = ENTRANCES.index(entrance) + 1
    last = EXITS.index(exit_) + 1
    if last < first:
        raise ConfigurationError(
            f"route {entrance}-{exit_} would flow right to left")
    return [node_name(i) for i in range(first, last + 1)]

