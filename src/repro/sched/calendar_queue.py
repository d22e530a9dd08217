"""Deadline-ordered queues: exact heap and approximate O(1) calendar.

Deadline-based disciplines (Leave-in-Time, WFQ, EDD) need a
priority queue ordered by transmission deadline. The paper notes that
"Leave-in-Time uses an approximate sorted priority queue algorithm
which runs in O(1) time with a small cost in emulation error" [6].

We provide both:

* :class:`HeapDeadlineQueue` — an exact binary heap (O(log n)); ties
  broken FIFO by insertion sequence.
* :class:`ApproximateDeadlineQueue` — deadlines are bucketed into bins
  of configurable width; buckets are served in bin order and FIFO
  *within* a bin. Two packets whose deadlines fall in the same bin may
  therefore be served out of deadline order, but the inversion is
  bounded by the bin width — exactly the "small emulation error" the
  paper trades for O(1) operations. The ablation benchmark
  ``benchmarks/test_ablation_queue.py`` measures both the speed and the
  induced error.

Both expose the same interface so :class:`~repro.sched.leave_in_time.
LeaveInTime` can be constructed with either.

Queue entries are per-packet ``(deadline, seq, packet)`` tuples, not
session-table columns: the queues index by *packet*, not by session,
and their population is bounded by the in-flight packet count
(small at any load the paper admits), not by the 10^5-10^6
admitted sessions the :class:`~repro.net.session_table.SessionTable`
is built for — tabulating them would buy nothing.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Optional, Protocol

from repro.errors import ConfigurationError
from repro.net.packet import Packet

__all__ = ["DeadlineQueue", "HeapDeadlineQueue", "ApproximateDeadlineQueue"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class DeadlineQueue(Protocol):
    """The queue interface deadline-based schedulers depend on."""

    def push(self, packet: Packet) -> None: ...
    def pop(self) -> Optional[Packet]: ...
    def __len__(self) -> int: ...


class HeapDeadlineQueue:
    """Exact deadline order; FIFO among equal deadlines."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, packet: Packet) -> None:
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (packet.deadline, seq, packet))

    def pop(self) -> Optional[Packet]:
        heap = self._heap
        if heap:
            return _heappop(heap)[2]
        return None

    def peek_deadline(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class ApproximateDeadlineQueue:
    """Bucketed deadlines: O(1) operations, inversions < ``bin_width``.

    Parameters
    ----------
    bin_width:
        Width of a deadline bin in seconds. A natural choice is the
        transmission time of a maximum-length packet, which keeps the
        emulation error comparable to the unavoidable packetization
        error ``L_MAX/C``.
    """

    def __init__(self, bin_width: float) -> None:
        if bin_width <= 0:
            raise ConfigurationError(
                f"bin width must be positive, got {bin_width}")
        self.bin_width = float(bin_width)
        self._bins: Dict[int, Deque[Packet]] = {}
        self._bin_heap: list = []
        self._count = 0

    def _bin_of(self, deadline: float) -> int:
        return int(deadline / self.bin_width)

    def push(self, packet: Packet) -> None:
        key = self._bin_of(packet.deadline)
        bucket = self._bins.get(key)
        if bucket is None:
            bucket = deque()
            self._bins[key] = bucket
            heapq.heappush(self._bin_heap, key)
        bucket.append(packet)
        self._count += 1

    def pop(self) -> Optional[Packet]:
        while self._bin_heap:
            key = self._bin_heap[0]
            bucket = self._bins.get(key)
            if not bucket:
                heapq.heappop(self._bin_heap)
                self._bins.pop(key, None)
                continue
            packet = bucket.popleft()
            self._count -= 1
            if not bucket:
                heapq.heappop(self._bin_heap)
                del self._bins[key]
            return packet
        return None

    def __len__(self) -> int:
        return self._count
