"""Failure events, failure patterns, and per-tick adversary decisions.

Definition 2.1 of the paper: a *failure pattern* ``F`` is a set of triples
``<tag, PID, t>`` where ``tag`` is ``failure`` or ``restart``, ``PID`` is
the processor identifier and ``t`` the time.  The *size* of the pattern is
its cardinality ``|F|``; the overhead ratio amortizes completed work over
``|I| + |F|``.

These types are owned by the substrate (the machine both consumes
decisions and records the realized pattern); the :mod:`repro.faults`
package builds concrete adversaries on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Tuple,
)


class FailureTag(Enum):
    """Tag of a failure-pattern event (Definition 2.1)."""

    FAILURE = "failure"
    RESTART = "restart"


class FailureEvent(NamedTuple):
    """One ``<tag, PID, t>`` triple of a failure pattern.

    A NamedTuple (one tuple allocation, no per-field ``__setattr__``):
    dense adversaries record an event for most processors on every tick,
    and :class:`FailurePattern` builds it with ``tuple.__new__``,
    skipping the NamedTuple's Python-level ``__new__`` as well.
    """

    tag: FailureTag
    pid: int
    time: int

    def is_failure(self) -> bool:
        return self.tag is FailureTag.FAILURE

    def is_restart(self) -> bool:
        return self.tag is FailureTag.RESTART


_new_tuple = tuple.__new__


class FailurePattern:
    """An ordered record of failure/restart events.

    The machine appends events as the run unfolds; afterwards the pattern
    is the realized ``F`` whose size ``|F|`` enters the overhead ratio.
    """

    def __init__(self, events: Iterable[FailureEvent] = ()) -> None:
        self._events: List[FailureEvent] = list(events)

    def record(self, tag: FailureTag, pid: int, time: int) -> None:
        self._events.append(_new_tuple(FailureEvent, (tag, pid, time)))

    def record_many(
        self, tag: FailureTag, pids: Iterable[int], time: int
    ) -> None:
        """Record one ``tag`` event per pid of ``pids``, in their order."""
        new, event = _new_tuple, FailureEvent
        self._events.extend([new(event, (tag, pid, time)) for pid in pids])

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailurePattern(|F|={len(self._events)})"

    @property
    def size(self) -> int:
        """``|F|`` — the cardinality used by the overhead ratio."""
        return len(self._events)

    @property
    def failure_count(self) -> int:
        return sum(1 for event in self._events if event.is_failure())

    @property
    def restart_count(self) -> int:
        return sum(1 for event in self._events if event.is_restart())

    def events_at(self, time: int) -> Tuple[FailureEvent, ...]:
        return tuple(event for event in self._events if event.time == time)

    def events_for(self, pid: int) -> Tuple[FailureEvent, ...]:
        return tuple(event for event in self._events if event.pid == pid)


#: Sentinel for :class:`Decision` failure values: the processor completes
#: every write of its current update cycle (the cycle counts as completed
#: work) and *then* fails, i.e. the failure lands between cycles.
AFTER_ALL_WRITES = -1

#: A failure landing before any write of the cycle is applied.  The cycle
#: is charged to ``S'`` but not to the completed work ``S``.
BEFORE_WRITES = 0


@dataclass(frozen=True)
class Decision:
    """An adversary's verdict for one machine tick.

    ``failures`` maps a running processor's PID to the number of atomic
    writes of its current cycle that land before the processor stops
    (``BEFORE_WRITES`` = none, ``AFTER_ALL_WRITES`` = all of them, any
    ``0 <= k <= len(writes)`` for a prefix — bit/word writes are atomic so
    a failure can only fall between writes, never inside one).

    ``restarts`` lists failed processors revived at this tick; a restarted
    processor re-enters its program from the initial state (knowing only
    its PID) and executes its first update cycle on the *next* tick.

    ``stalls`` lists running processors whose pending cycle is *deferred*
    this tick (the heterogeneous-speed model of Zavou & Fernández Anta: a
    class-k processor advances only every k-th tick).  A stalled cycle is
    not executed, not charged, and not a failure — the processor keeps
    its private state and re-attempts the same cycle with fresh reads on
    the next tick the adversary lets it run.  Stalls never enter the
    failure pattern ``F``.  A PID may not be both stalled and failed.
    """

    failures: Mapping[int, int] = field(default_factory=dict)
    restarts: FrozenSet[int] = frozenset()
    stalls: FrozenSet[int] = frozenset()

    @staticmethod
    def none() -> "Decision":
        """The adversary does nothing this tick."""
        return Decision()

    @staticmethod
    def fail(pids: Iterable[int], writes_applied: int = BEFORE_WRITES) -> "Decision":
        """Fail every PID in ``pids`` at the same point of its cycle."""
        return Decision(failures={pid: writes_applied for pid in pids})

    @staticmethod
    def restart(pids: Iterable[int]) -> "Decision":
        """Restart every PID in ``pids``."""
        return Decision(restarts=frozenset(pids))

    @staticmethod
    def stall(pids: Iterable[int]) -> "Decision":
        """Defer the pending cycles of ``pids`` to a later tick."""
        return Decision(stalls=frozenset(pids))

    def merged_with(self, other: "Decision") -> "Decision":
        """Combine two decisions (later failure verdicts win on overlap)."""
        failures: Dict[int, int] = dict(self.failures)
        failures.update(other.failures)
        return Decision(
            failures=failures,
            restarts=frozenset(self.restarts) | frozenset(other.restarts),
            stalls=(frozenset(self.stalls) | frozenset(other.stalls))
            - set(failures),
        )
