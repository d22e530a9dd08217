"""Leave-in-Time reproduction library.

A full implementation of the Leave-in-Time service discipline
(Figueira & Pasquale, SIGCOMM '95) together with the substrates its
evaluation depends on: a discrete-event network simulator, the paper's
traffic sources and topology, the baseline disciplines of Section 4,
the three admission-control procedures, and the closed-form service
guarantees of Section 2.

Quickstart::

    from repro import (LeaveInTime, Session, build_paper_network,
                       OnOffSource, ms, kbps)

    network = build_paper_network(LeaveInTime)
    session = Session("voice", rate=kbps(32),
                      route=["n1", "n2", "n3", "n4", "n5"], l_max=424)
    network.add_session(session)
    OnOffSource(network, session, length=424, spacing=ms(13.25),
                mean_on=ms(352), mean_off=ms(650))
    network.run(60.0)
    print(network.sink("voice").max_delay)

This package and ``repro.net``, ``repro.sched``, ``repro.traffic``,
``repro.bounds``, ``repro.admission`` and ``repro.experiments`` import
a module the first time one of its names is read, so a run compiles
only the modules it uses.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

__version__ = "1.0.0"


def _lazy_exports(namespace: Dict[str, Any], exports: Dict[str, str]
                  ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    public name to the module defining it, relative to the package.  A
    name's module is imported when the name is first read, and the value
    is bound in the package so later reads are plain lookups.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(exports[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: Public name -> defining module, imported on first use.
_EXPORTS = {
    # errors
    "ReproError": ".errors",
    "SimulationError": ".errors",
    "ConfigurationError": ".errors",
    "AdmissionError": ".errors",
    "SchedulerSaturationError": ".errors",
    # network
    "Network": ".net.network",
    "Session": ".net.session",
    "Sink": ".net.sink",
    "Packet": ".net.packet",
    "Link": ".net.link",
    "ServerNode": ".net.node",
    "build_paper_network": ".net.topology",
    "route_from_letters": ".net.route",
    # simulation
    "Simulator": ".sim.kernel",
    # schedulers
    "LeaveInTime": ".sched.leave_in_time",
    "FCFS": ".sched.fcfs",
    "WFQ": ".sched.wfq",
    "DelayEDD": ".sched.edd",
    "JitterEDD": ".sched.edd",
    "StopAndGo": ".sched.stop_and_go",
    "HierarchicalRoundRobin": ".sched.hrr",
    "RCSP": ".sched.rcsp",
    "DelayPolicy": ".sched.policy",
    "virtual_clock_policy": ".sched.policy",
    # traffic
    "OnOffSource": ".traffic.onoff",
    "PoissonSource": ".traffic.poisson",
    "DeterministicSource": ".traffic.deterministic",
    "TraceSource": ".traffic.trace_source",
    "TokenBucket": ".traffic.token_bucket",
    # units
    "ms": ".units",
    "kbps": ".units",
    "Mbps": ".units",
    "ATM_PACKET_BITS": ".units",
    "T1_RATE_BPS": ".units",
}
__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
