"""Run accounting: completed work ``S``, charged work ``S'`` and friends.

Definitions 2.2 and 2.3 of the paper:

* ``S = c * sum_i P_i(I, F)`` where ``P_i`` is the number of processors
  *completing* an update cycle at time ``i`` (we take the cycle cost
  ``c = 1``);
* ``S'`` additionally charges cycles the adversary interrupted
  (``S' <= S + |F|`` — Remark 2);
* the overhead ratio ``sigma = max S / (|I| + |F|)`` amortizes work over
  the input size and the failure-pattern size.

The ledger records everything a single run produced; the aggregate
measures of Definition 2.3 (maxima over inputs and patterns) are taken by
the benchmark harness across runs.  Per-PID counts live in one
representation, :class:`PidCounter`: a flat array with the mapping
interface of a sparse dict.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.pram.failures import FailurePattern


class PidCounter(MappingABC):
    """An array-backed per-PID counter with the sparse-dict interface.

    The machine's hot loop charges one attempt (and usually one
    completion) per running processor per tick; a plain ``dict`` pays a
    hash + probe per charge.  This counter stores counts in a flat list
    indexed by PID — an O(1) list add per charge — while presenting the
    *observable* mapping of a sparse dict: PIDs with a zero count are
    absent (``pid in counter`` is False, iteration skips them, ``len``
    counts only non-zero entries), and ``collections.abc.Mapping``
    supplies dict-compatible equality, so a counter compares equal to
    the plain dict of its non-zero counts.
    """

    __slots__ = ("_counts",)

    def __init__(self, size: int = 0) -> None:
        self._counts: List[int] = [0] * size

    # -- fast-path hooks ------------------------------------------------ #

    def increment(self, pid: int, amount: int = 1) -> None:
        counts = self._counts
        if pid >= len(counts):
            counts.extend([0] * (pid + 1 - len(counts)))
        counts[pid] += amount

    def increment_many(self, pids: Iterable[int], amount: int) -> None:
        """Add ``amount`` to every pid in one pass (window flushes)."""
        counts = self._counts
        length = len(counts)
        for pid in pids:
            if pid < length:
                counts[pid] += amount
            else:
                self.increment(pid, amount)
                length = len(counts)

    def backing_list(self) -> List[int]:
        """The raw count array (machine fast-path use only).

        Callers may add to existing slots but must never shrink the
        list; PIDs beyond its length go through :meth:`increment`.
        """
        return self._counts

    def total(self) -> int:
        return sum(self._counts)

    # -- Mapping interface ---------------------------------------------- #

    def __getitem__(self, pid: int) -> int:
        counts = self._counts
        if isinstance(pid, int) and 0 <= pid < len(counts) and counts[pid]:
            return counts[pid]
        raise KeyError(pid)

    def __iter__(self) -> Iterator[int]:
        return (pid for pid, count in enumerate(self._counts) if count)

    def __len__(self) -> int:
        return sum(1 for count in self._counts if count)

    def get(self, pid: int, default=None):
        counts = self._counts
        if isinstance(pid, int) and 0 <= pid < len(counts) and counts[pid]:
            return counts[pid]
        return default

    def copy(self) -> Dict[int, int]:
        return {pid: count for pid, count in enumerate(self._counts) if count}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PidCounter({self.copy()!r})"


@dataclass
class RunLedger:
    """Accounting record of one machine run."""

    #: Number of clock ticks executed.
    ticks: int = 0
    #: Completed update cycles, per PID.  The machine sizes both
    #: counters to P, because its fast settle adds through
    #: :meth:`PidCounter.backing_list`; a ledger built without a machine
    #: grows them on first charge.
    completed_by_pid: PidCounter = field(default_factory=PidCounter)
    #: Update cycles charged under the S' measure, per PID (completed plus
    #: adversary-interrupted attempts).
    attempted_by_pid: PidCounter = field(default_factory=PidCounter)
    #: The realized failure pattern F.
    pattern: FailurePattern = field(default_factory=FailurePattern)
    #: Times the machine vetoed the adversary to preserve the progress
    #: condition (Section 2.1, condition 2.(i)).
    progress_vetoes: int = 0
    #: Times the optional fairness window forced an interrupted
    #: processor's cycle through (see Machine(fairness_window=...)).
    fairness_vetoes: int = 0
    #: Number of P_i(I, F) values, i.e. completed cycles per tick.
    completed_per_tick: List[int] = field(default_factory=list)
    #: Shared-memory traffic totals.
    memory_reads: int = 0
    memory_writes: int = 0
    #: Why the run ended.
    halted: bool = False
    goal_reached: bool = False
    stalled: bool = False
    tick_limited: bool = False

    # ------------------------------------------------------------------ #
    # paper measures
    # ------------------------------------------------------------------ #

    @property
    def completed_work(self) -> int:
        """``S`` — completed update cycles across all processors."""
        return self.completed_by_pid.total()

    @property
    def charged_work(self) -> int:
        """``S'`` — completed plus interrupted update cycles."""
        return self.attempted_by_pid.total()

    @property
    def pattern_size(self) -> int:
        """``|F|`` — cardinality of the realized failure pattern."""
        return self.pattern.size

    def overhead_ratio(self, input_size: int) -> float:
        """``sigma = S / (|I| + |F|)`` for this run."""
        denominator = input_size + self.pattern_size
        if denominator <= 0:
            raise ValueError(
                f"overhead ratio needs |I| + |F| > 0, got {denominator}"
            )
        return self.completed_work / denominator

    @property
    def parallel_time(self) -> int:
        """Ticks elapsed — the tau of Parallel-time x Processors."""
        return self.ticks

    # ------------------------------------------------------------------ #
    # recording hooks (called by the machine)
    # ------------------------------------------------------------------ #

    def charge_attempt(self, pid: int) -> None:
        self.attempted_by_pid.increment(pid)

    def charge_completion(self, pid: int) -> None:
        self.completed_by_pid.increment(pid)

    def charge_quiet_window(self, pids: Sequence[int], ticks: int) -> None:
        """Flush a fast-forwarded quiescent window in one batch.

        During ``ticks`` consecutive adversary-free ticks every pid in
        ``pids`` attempted *and* completed exactly one update cycle per
        tick, so attempts, completions, and the per-tick completion
        series can all be charged wholesale.  Equivalent to ``ticks``
        individual :meth:`charge_attempt` + :meth:`charge_completion`
        rounds plus ``completed_per_tick.append(len(pids))`` each tick.
        """
        if ticks <= 0:
            return
        self.attempted_by_pid.increment_many(pids, ticks)
        self.completed_by_pid.increment_many(pids, ticks)
        self.completed_per_tick.extend([len(pids)] * ticks)

    def describe(self, input_size: Optional[int] = None) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"ticks={self.ticks}",
            f"S (completed work)={self.completed_work}",
            f"S' (charged work)={self.charged_work}",
            f"|F| (failures+restarts)={self.pattern_size}"
            f" ({self.pattern.failure_count} failures,"
            f" {self.pattern.restart_count} restarts)",
        ]
        if input_size is not None and input_size + self.pattern_size > 0:
            lines.append(f"sigma=S/(N+|F|)={self.overhead_ratio(input_size):.3f}")
        status = (
            "goal reached"
            if self.goal_reached
            else "halted"
            if self.halted
            else "stalled"
            if self.stalled
            else "tick limited"
            if self.tick_limited
            else "running"
        )
        lines.append(f"status={status}")
        return ", ".join(lines)
