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
"""

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    SchedulerSaturationError,
    SimulationError,
)
from repro.net import (
    Link,
    Network,
    Packet,
    ServerNode,
    Session,
    Sink,
    build_paper_network,
    route_from_letters,
)
from repro.sched import (
    FCFS,
    RCSP,
    WFQ,
    DelayEDD,
    DelayPolicy,
    HierarchicalRoundRobin,
    JitterEDD,
    LeaveInTime,
    ReferenceServer,
    StopAndGo,
    virtual_clock_policy,
)
from repro.sim import Simulator
from repro.traffic import (
    DeterministicSource,
    OnOffSource,
    PoissonSource,
    TokenBucket,
    TraceSource,
)
from repro.units import ATM_PACKET_BITS, Mbps, T1_RATE_BPS, kbps, ms

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SimulationError",
    "ConfigurationError",
    "AdmissionError",
    "SchedulerSaturationError",
    # network
    "Network",
    "Session",
    "Sink",
    "Packet",
    "Link",
    "ServerNode",
    "build_paper_network",
    "route_from_letters",
    # simulation
    "Simulator",
    # schedulers
    "LeaveInTime",
    "FCFS",
    "WFQ",
    "DelayEDD",
    "JitterEDD",
    "StopAndGo",
    "HierarchicalRoundRobin",
    "RCSP",
    "ReferenceServer",
    "DelayPolicy",
    "virtual_clock_policy",
    # traffic
    "OnOffSource",
    "PoissonSource",
    "DeterministicSource",
    "TraceSource",
    "TokenBucket",
    # units
    "ms",
    "kbps",
    "Mbps",
    "ATM_PACKET_BITS",
    "T1_RATE_BPS",
]
