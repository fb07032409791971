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
(one tuple allocation, no per-field ``__setattr__``), and the fast
tick's ``statuses`` is a read-only mapping built only when an adversary
reads it — adversaries must treat every view field as frozen.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from types import MappingProxyType
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


class TickView:
    """Everything the adversary may inspect before ruling on a tick.

    An immutable record with the interface of a frozen dataclass,
    written by hand with ``__slots__`` like
    :class:`~repro.pram.cycles.Write`: the same constructor, field-wise
    ``==`` against records of the same class only (``_failed_pids`` left
    out, as from ``repr``), the same ``repr``, and
    :class:`dataclasses.FrozenInstanceError` on assignment or deletion.
    The machine builds one per observable tick, where a frozen
    dataclass's ``__init__`` cost twice as much (figures in
    docs/PERFORMANCE.md).

    The fast tick passes ``statuses=None`` with the failed pids and the
    processor count its status caches keep: the table is then built on
    first read from ``pending`` (RUNNING), ``_failed_pids`` (FAILED) and
    ``_num_processors`` (every other pid HALTED), read-only and equal to
    the dict the reference tick passes.  Of the adversaries only the
    static ones (its length) and the tracer read it.
    """

    __slots__ = (
        "time", "memory", "_statuses", "pending", "ledger", "context",
        "_failed_pids", "_num_processors",
    )

    time: int
    memory: MemoryReader
    pending: Mapping[int, PendingCycleView]
    ledger: RunLedger
    context: Mapping[str, object]

    def __init__(
        self,
        time: int,
        memory: MemoryReader,
        statuses: Optional[Mapping[int, ProcessorStatus]],
        pending: Mapping[int, PendingCycleView],
        ledger: RunLedger,
        context: Mapping[str, object],
        _failed_pids: Optional[Tuple[int, ...]] = None,
        _num_processors: int = 0,
    ) -> None:
        _set_time(self, time)
        _set_memory(self, memory)
        _set_statuses(self, statuses)
        _set_pending(self, pending)
        _set_ledger(self, ledger)
        _set_context(self, context)
        #: ``failed_pids`` precomputed from ``statuses``; ``None``
        #: derives it on access.
        _set_failed_pids(self, _failed_pids)
        _set_num_processors(self, _num_processors)

    @property
    def statuses(self) -> Mapping[int, ProcessorStatus]:
        statuses = self._statuses
        if statuses is None:
            table = dict.fromkeys(
                range(self._num_processors), ProcessorStatus.HALTED
            )
            for pid in self._failed_pids:
                table[pid] = ProcessorStatus.FAILED
            for pid in self.pending:
                table[pid] = ProcessorStatus.RUNNING
            statuses = MappingProxyType(table)
            _set_statuses(self, statuses)
        return statuses

    def _fields(self) -> tuple:
        return (
            self.time, self.memory, self.statuses, self.pending,
            self.ledger, self.context,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(time={self.time!r}, "
            f"memory={self.memory!r}, statuses={self.statuses!r}, "
            f"pending={self.pending!r}, ledger={self.ledger!r}, "
            f"context={self.context!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, (
            self.time, self.memory, dict(self.statuses), self.pending,
            self.ledger, self.context, self._failed_pids,
        ))

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


(
    _set_time, _set_memory, _set_statuses, _set_pending, _set_ledger,
    _set_context, _set_failed_pids, _set_num_processors,
) = (getattr(TickView, name).__set__ for name in TickView.__slots__)
