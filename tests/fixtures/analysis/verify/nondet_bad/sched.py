"""BAD: set iteration whose body reaches the event queue via a call.

The loop body never touches ``schedule`` directly — only the
whole-program call graph can see that ``kick`` does.
"""

from typing import Set

from nondet_bad.helpers import kick


def drain(sim, waiting: Set[object]) -> None:
    for packet in waiting:
        kick(sim, packet)


class Scheduler:
    """BAD: the loop enqueues on the deadline heap with no call between."""

    def forget_session(self, held: Set[object]) -> None:
        for packet in set(held):
            self._push(packet)

    def _push(self, packet) -> None:
        self.queue.append(packet)
