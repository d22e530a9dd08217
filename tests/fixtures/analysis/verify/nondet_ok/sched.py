"""OK: the set is sorted before iterating, so dispatch order is pinned."""

from typing import Set

from nondet_ok.helpers import kick


def drain(sim, waiting: Set[object]) -> None:
    for packet in sorted(waiting):
        kick(sim, packet)


class Scheduler:
    """OK: the held set is sorted before it is enqueued."""

    def forget_session(self, held: Set[object]) -> None:
        for packet in sorted(held):
            self._push(packet)

    def _push(self, packet) -> None:
        self.queue.append(packet)
