"""Service disciplines.

The core contribution — :class:`~repro.sched.leave_in_time.LeaveInTime`
— plus the reference server it emulates and the disciplines the paper
compares against in Section 4 (FCFS is its motivating case):

========================  ==========================================
Discipline                Module
========================  ==========================================
Leave-in-Time (core)      :mod:`repro.sched.leave_in_time`
Reference (fixed-rate)    :mod:`repro.sched.reference`
FCFS                      :mod:`repro.sched.fcfs`
WFQ / PGPS                :mod:`repro.sched.wfq`
Delay-EDD / Jitter-EDD    :mod:`repro.sched.edd`
Stop-and-Go               :mod:`repro.sched.stop_and_go`
Hierarchical Round Robin  :mod:`repro.sched.hrr`
RCSP                      :mod:`repro.sched.rcsp`
========================  ==========================================

VirtualClock is Leave-in-Time with its default ``d = L/r`` policy
(:func:`~repro.sched.policy.virtual_clock_policy`); the tests hold the
two to eq. 2 packet for packet.

All disciplines plug into :class:`~repro.net.node.ServerNode` through
the :class:`~repro.sched.base.Scheduler` contract; the deadline-ordered
ones (Leave-in-Time, WFQ, EDD) share the one exact heap of
:class:`~repro.sched.base.DeadlineScheduler`.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first use.
_EXPORTS = {
    "Scheduler": ".base",
    "LeaveInTime": ".leave_in_time",
    "FCFS": ".fcfs",
    "WFQ": ".wfq",
    "DelayEDD": ".edd",
    "JitterEDD": ".edd",
    "StopAndGo": ".stop_and_go",
    "HierarchicalRoundRobin": ".hrr",
    "RCSP": ".rcsp",
    "reference_finish_times": ".reference",
    "DelayPolicy": ".policy",
    "virtual_clock_policy": ".policy",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
