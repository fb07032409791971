"""Adversary composition: unions and phase switches."""

from __future__ import annotations

from typing import Sequence

from repro.faults.base import Adversary, quiet_horizon
from repro.pram.failures import Decision
from repro.pram.view import TickView


class UnionAdversary(Adversary):
    """Merges the decisions of several adversaries.

    Later adversaries' failure verdicts win on overlapping PIDs; restart
    and stall sets are unioned, and a PID that also fails is not
    stalled.  Useful to combine, e.g., a random background failure
    process with a targeted stalker.
    """

    def __init__(self, members: Sequence[Adversary]) -> None:
        if not members:
            raise ValueError("UnionAdversary needs at least one member")
        self.members = list(members)

    def reset(self) -> None:
        for member in self.members:
            member.reset()

    def quiet_until(self, tick: int) -> int:
        # The union acts whenever any member might: the earliest member
        # horizon wins.  A composed Tracer returns tick + 1 here, which
        # correctly pins the whole union to tick-exact consults.
        return min(quiet_horizon(member, tick) for member in self.members)

    def decide(self, view: TickView) -> Decision:
        merged = Decision.none()
        for member in self.members:
            merged = merged.merged_with(member.decide(view))
        # A union can restart a pid another member failed this very tick;
        # the machine handles that (fail-then-restart within a tick is a
        # legal pattern).  But restarting a pid that is neither failed nor
        # failing now would be invalid — filter those.
        failed_now = set(view.failed_pids) | set(merged.failures)
        restarts = frozenset(pid for pid in merged.restarts if pid in failed_now)
        return Decision(
            failures=merged.failures, restarts=restarts, stalls=merged.stalls
        )


class PhaseSwitchAdversary(Adversary):
    """Runs one adversary until a tick threshold, another afterwards.

    Models regime changes (quiet start, then a failure storm) used by the
    crossover benchmarks.
    """

    def __init__(self, first: Adversary, second: Adversary, switch_tick: int) -> None:
        if switch_tick < 1:
            raise ValueError(f"switch_tick must be >= 1, got {switch_tick}")
        self.first = first
        self.second = second
        self.switch_tick = switch_tick

    def quiet_until(self, tick: int) -> int:
        if tick + 1 < self.switch_tick:
            # First regime: its promise holds only up to the switch, at
            # which the second adversary must get its first consult.
            return min(quiet_horizon(self.first, tick), self.switch_tick)
        return quiet_horizon(self.second, tick)

    def reset(self) -> None:
        self.first.reset()
        self.second.reset()

    def decide(self, view: TickView) -> Decision:
        if view.time < self.switch_tick:
            return self.first.decide(view)
        return self.second.decide(view)
