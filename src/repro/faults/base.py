"""Adversary base classes.

An on-line adversary is consulted once per machine tick with a
:class:`~repro.pram.view.TickView` — full knowledge of the algorithm's
state, including the write sets its pending update cycles are about to
produce — and returns a :class:`~repro.pram.failures.Decision`.

Off-line (non-adaptive) adversaries commit to a failure pattern before
the run; :class:`ScheduledAdversary` replays such a pattern.  The paper's
Section 5 point — randomization defeats off-line adversaries but not
on-line ones — is exercised by running the same algorithm under both.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.pram.failures import BEFORE_WRITES, Decision
from repro.pram.view import TickView
from repro.util.hooks import trusted_hook

#: An event horizon meaning "this adversary never acts again".  Any
#: value beyond every reachable tick count works; this one is far past
#: any conceivable ``max_ticks`` yet still a plain machine int.
QUIET_FOREVER = 1 << 62


def quiet_horizon(adversary: object, tick: int) -> int:
    """``adversary.quiet_until(tick)`` if the hook is trusted, else ``tick + 1``.

    The machine accepts any object with a ``decide`` method; wrappers
    use this helper so an adversary without a trusted hook degrades to
    the always-sound per-tick horizon.  A horizon is a promise about
    ``decide``, so it is trusted under the rule the machine applies
    (:func:`repro.util.hooks.trusted_hook`): only when declared by the
    instance, or by the class that defines the effective ``decide`` or
    a subclass of it.  A subclass that overrides ``decide()`` while
    inheriting, say, an infinite horizon has broken the promise and is
    consulted every tick, and so is a proxy that reaches the hook only
    through ``__getattr__``.
    """
    hook = trusted_hook(adversary, "quiet_until", "decide")
    if hook is None:
        return tick + 1
    return hook(tick)


class Adversary:
    """Base class: a do-nothing adversary; subclasses override decide().

    **Event-horizon contract** (``quiet_until``).  The machine's
    fast-forward loop asks the adversary, after tick ``tick`` has
    completed, for the earliest future tick at which it might act.
    Returning ``horizon > tick + 1`` promises that for every tick ``t``
    with ``tick < t < horizon``:

    * ``decide(view_t)`` would return an empty decision (no failures,
      no restarts), **and**
    * skipping the ``decide`` call entirely does not change the
      adversary's later behavior — no RNG draws, counters, or other
      state advance on those ticks.

    Within such a window the machine never builds the per-tick
    :class:`~repro.pram.view.TickView` and never calls ``decide`` at
    all, so the promise must hold for *every possible* machine state at
    those ticks, not just the one the adversary last saw.  An adversary
    that draws randomness per tick (e.g. ``RandomAdversary``) can never
    promise a horizon beyond ``tick + 1`` because the skipped draws
    would shift its RNG stream,
    and an observer like :class:`~repro.pram.trace.Tracer` must pin the
    horizon to ``tick + 1`` because it needs to *see* every tick.
    ``decide`` may still be called during a promised-quiet interval
    (e.g. while every processor is down and the machine must tick to
    force a restart); it must return an empty decision there.

    The default, ``tick + 1``, means "consult me every tick" — always
    sound.  Return :data:`QUIET_FOREVER` for "never again" (an
    adversary that never acts, such as ``NoFailures``, says so this
    way).  The hook is only honored when defined by the class that
    defines the instance's effective ``decide`` (see
    :func:`quiet_horizon`): a subclass overriding ``decide()`` without
    restating its own horizon is consulted every tick.
    """

    #: Whether the adversary adapts to the run (True) or committed to a
    #: schedule beforehand (False).  Purely informational.
    online = True

    def decide(self, view: TickView) -> Decision:
        return Decision.none()

    def quiet_until(self, tick: int) -> int:
        """Earliest tick > ``tick`` at which this adversary might act.

        See the class docstring for the exact soundness contract.  The
        base implementation claims no quiescence at all.
        """
        return tick + 1

    def reset(self) -> None:
        """Clear mutable state so the instance can adjudicate a new run."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ScheduledAdversary(Adversary):
    """Replays a fixed (off-line) failure/restart schedule.

    The schedule maps tick numbers to ``(fail_pids, restart_pids)``.
    Failures land before any write of the victim's current cycle; pids
    that are not currently running/failed as required are skipped silently
    (an off-line pattern cannot know the run's exact state, and the model
    lets failure events be vacuous).
    """

    online = False

    def __init__(
        self,
        schedule: Mapping[int, Tuple[Iterable[int], Iterable[int]]],
    ) -> None:
        self._schedule: Dict[int, Tuple[List[int], List[int]]] = {
            tick: (sorted(set(fails)), sorted(set(restarts)))
            for tick, (fails, restarts) in schedule.items()
        }
        # Sorted ticks that carry at least one (possibly vacuous) event:
        # between two of them the adversary provably does nothing, which
        # is exactly what quiet_until() promises the fast-forward loop.
        self._event_ticks: List[int] = sorted(
            tick for tick, (fails, restarts) in self._schedule.items()
            if fails or restarts
        )

    def quiet_until(self, tick: int) -> int:
        index = bisect_right(self._event_ticks, tick)
        if index == len(self._event_ticks):
            return QUIET_FOREVER
        return self._event_ticks[index]

    def decide(self, view: TickView) -> Decision:
        entry = self._schedule.get(view.time)
        if entry is None:
            return Decision.none()
        fail_pids, restart_pids = entry
        failures = {
            pid: BEFORE_WRITES for pid in fail_pids if pid in view.pending
        }
        failed_now: Set[int] = set(view.failed_pids) | set(failures)
        restarts = frozenset(pid for pid in restart_pids if pid in failed_now)
        return Decision(failures=failures, restarts=restarts)
