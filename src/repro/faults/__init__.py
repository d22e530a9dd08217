"""Deterministic fault injection for the Leave-in-Time reproduction.

The paper's isolation claims (eqs. 12-17) are usually demonstrated on a
perfectly reliable network; this package stresses them under adversity
without giving up reproducibility.  A declarative
:class:`~repro.faults.plan.FaultPlan` names link faults (down/up
windows and seeded per-packet loss), and a
:class:`~repro.faults.injector.FaultInjector` turns it into ordinary
kernel events at an explicit tie-break priority
(:data:`~repro.faults.injector.PRIORITY_FAULT`).  With no plan armed,
every data-path hook is a single ``is not None`` check; an armed plan
adds its own timers to the event schedule and nothing else — its
handlers act on parked work, an empty plan changes no event.

See ``docs/faults.md`` for the fault model and its determinism
guarantees.
"""

from repro.faults.injector import (PRIORITY_FAULT, FaultInjector,
                                   NodeFaultState)
from repro.faults.plan import FaultPlan, LinkDown, PacketLoss

__all__ = [
    "PRIORITY_FAULT",
    "FaultPlan",
    "LinkDown",
    "PacketLoss",
    "FaultInjector",
    "NodeFaultState",
]
