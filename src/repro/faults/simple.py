"""Trivial adversaries used as baselines and in tests."""

from __future__ import annotations

from repro.faults.base import QUIET_FOREVER, Adversary
from repro.pram.failures import BEFORE_WRITES, Decision
from repro.pram.view import TickView


class NoFailures(Adversary):
    """The failure-free PRAM (the classical model)."""

    online = False

    def decide(self, view: TickView) -> Decision:
        return Decision.none()

    def quiet_until(self, tick: int) -> int:
        # Never acts: a whole run is one quiet window, as with no
        # adversary at all.
        return QUIET_FOREVER


class SinglePidKiller(Adversary):
    """Permanently fails one processor at a given tick.

    The smallest non-trivial failure pattern (|F| = 1); used to check
    that algorithms survive losing a specific processor, including PID 0
    (no algorithm may rely on a distinguished immortal processor).
    """

    def __init__(self, pid: int, at_tick: int = 1) -> None:
        self.pid = pid
        self.at_tick = at_tick

    def quiet_until(self, tick: int) -> int:
        return self.at_tick if tick < self.at_tick else QUIET_FOREVER

    def decide(self, view: TickView) -> Decision:
        if view.time == self.at_tick and self.pid in view.pending:
            return Decision.fail([self.pid], BEFORE_WRITES)
        return Decision.none()
