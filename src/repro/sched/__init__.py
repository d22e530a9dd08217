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
the :class:`~repro.sched.base.Scheduler` contract. Leave-in-Time can
swap its deadline queue between an exact binary heap and the
approximate O(1) calendar queue the paper mentions
(:mod:`repro.sched.calendar_queue`).
"""

from repro.sched.base import Scheduler
from repro.sched.calendar_queue import ApproximateDeadlineQueue, HeapDeadlineQueue
from repro.sched.edd import DelayEDD, JitterEDD
from repro.sched.fcfs import FCFS
from repro.sched.hrr import HierarchicalRoundRobin
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.policy import DelayPolicy, virtual_clock_policy
from repro.sched.rcsp import RCSP
from repro.sched.reference import ReferenceServer, reference_finish_times
from repro.sched.stop_and_go import StopAndGo
from repro.sched.wfq import WFQ

__all__ = [
    "Scheduler",
    "LeaveInTime",
    "FCFS",
    "WFQ",
    "DelayEDD",
    "JitterEDD",
    "StopAndGo",
    "HierarchicalRoundRobin",
    "RCSP",
    "ReferenceServer",
    "reference_finish_times",
    "DelayPolicy",
    "virtual_clock_policy",
    "HeapDeadlineQueue",
    "ApproximateDeadlineQueue",
]
