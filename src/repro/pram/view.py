"""The omniscient on-line adversary's view of a machine tick.

"A failure pattern F is determined by an on-line adversary, that knows
everything about the algorithm and is unknown to the algorithm"
(Section 2.1).  The view hands the adversary, per tick:

* the clock, every processor's status, and the run ledger so far;
* read-only shared memory;
* each running processor's *pending* update cycle — including the write
  set its compute step will produce — so the adversary can fail processors
  based on what they are about to do (this is exactly the power the
  pigeonhole-halving and stalking adversaries of the paper require);
* harness-provided context (e.g. the algorithm's memory layout) so
  adversaries can locate the Write-All array, progress tree, etc.

Views are rebuilt every tick on the machine's hot path, so they are
deliberately allocation-lean: :class:`PendingCycleView` is a NamedTuple
(one tuple allocation, no per-field ``__setattr__``), and ``statuses``
may be a read-only proxy over the machine's cached status table rather
than a fresh dict — adversaries must treat every view field as frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Tuple

from repro.pram.cycles import Cycle, Write
from repro.pram.ledger import RunLedger
from repro.pram.memory import MemoryReader
from repro.pram.processor import ProcessorStatus


class PendingCycleView(NamedTuple):
    """What one running processor is about to do this tick.

    A NamedTuple rather than a dataclass: the observable tick builds one
    per running processor, and the machine builds it with
    ``tuple.__new__(PendingCycleView, (pid, cycle, read_values,
    writes))``, which skips even the NamedTuple's Python-level
    ``__new__``.  Adversaries see the same class and fields either way.
    """

    pid: int
    cycle: Cycle
    read_values: Tuple[int, ...]
    writes: Tuple[Write, ...]

    @property
    def label(self) -> str:
        return self.cycle.label

    def writes_to(self, address: int) -> bool:
        return any(write.address == address for write in self.writes)


@dataclass(frozen=True)
class TickView:
    """Everything the adversary may inspect before ruling on a tick."""

    time: int
    memory: MemoryReader
    statuses: Mapping[int, ProcessorStatus]
    pending: Mapping[int, PendingCycleView]
    ledger: RunLedger
    context: Mapping[str, object]
    #: ``failed_pids`` precomputed from ``statuses``, set only by the
    #: machine's fast tick, whose status cache already walks every
    #: processor on each status change; ``None`` derives it on access.
    _failed_pids: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def running_pids(self) -> Tuple[int, ...]:
        return tuple(
            pid
            for pid, status in sorted(self.statuses.items())
            if status is ProcessorStatus.RUNNING
        )

    @property
    def failed_pids(self) -> Tuple[int, ...]:
        failed = self._failed_pids
        if failed is not None:
            return failed
        return tuple(
            pid
            for pid, status in sorted(self.statuses.items())
            if status is ProcessorStatus.FAILED
        )

    @property
    def halted_pids(self) -> Tuple[int, ...]:
        return tuple(
            pid
            for pid, status in sorted(self.statuses.items())
            if status is ProcessorStatus.HALTED
        )

    def writers_of(self, address: int) -> Tuple[int, ...]:
        """PIDs whose pending cycle writes to ``address`` this tick."""
        return tuple(
            pid
            for pid, pending in sorted(self.pending.items())
            if pending.writes_to(address)
        )
