"""Structured execution tracing for the simulated machine.

A :class:`Tracer` is attached to a machine as (part of) its adversary —
it observes every tick through the same omniscient view adversaries get
and records one :class:`TickRecord` per tick: the running, failed and
halted PIDs, each pending cycle's label, and the values of watched
cells.  Because it composes through
:class:`~repro.faults.compose.UnionAdversary`, tracing works alongside
any real adversary without touching the machine core.

The recorded trace supports per-PID and per-cell queries and a
per-processor ASCII timeline (one lane per PID, one column per tick)
that makes failure/restart choreography visible at a glance::

    pid 0 |##########F...R####E
    pid 1 |####F.R####F......R#
           ^ tick 1

Legend: ``#`` running, ``.`` failed (down), ``F`` failure event, ``R``
restart event, ``E`` halted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.faults.base import Adversary
from repro.pram.failures import Decision
from repro.pram.view import TickView


@dataclass
class TickRecord:
    """Everything the tracer saw during one tick."""

    time: int
    running: Tuple[int, ...] = ()
    failed: Tuple[int, ...] = ()
    halted: Tuple[int, ...] = ()
    labels: Dict[int, str] = field(default_factory=dict)
    watched_values: Dict[int, int] = field(default_factory=dict)


class Tracer(Adversary):
    """A passive observer implemented as a no-op adversary.

    Args:
        watch: shared-memory addresses whose values are sampled per tick.
        max_ticks: ring-buffer capacity (oldest records dropped first).
    """

    def __init__(
        self,
        watch: Iterable[int] = (),
        max_ticks: int = 100_000,
    ) -> None:
        if max_ticks <= 0:
            raise ValueError(f"max_ticks must be positive, got {max_ticks}")
        self.watch: Tuple[int, ...] = tuple(watch)
        self.max_ticks = max_ticks
        self.records: List[TickRecord] = []

    def reset(self) -> None:
        self.records = []

    def quiet_until(self, tick: int) -> int:
        # A tracer never *acts*, but it must *observe* every tick: its
        # decide() appends a TickRecord, so skipping consults would drop
        # records.  Pinning the horizon to the very next tick keeps
        # traces tick-exact; composed through UnionAdversary this also
        # pins the whole union (the minimum member horizon wins), so the
        # machine's fast-forward loop is disabled whenever a trace is
        # being recorded.
        return tick + 1

    def decide(self, view: TickView) -> Decision:
        record = TickRecord(
            time=view.time,
            running=view.running_pids,
            failed=view.failed_pids,
            halted=view.halted_pids,
            labels={pid: view.pending[pid].label for pid in view.pending},
            watched_values={
                address: view.memory.read(address) for address in self.watch
            },
        )
        self.records.append(record)
        if len(self.records) > self.max_ticks:
            del self.records[0 : len(self.records) - self.max_ticks]
        return Decision.none()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def ticks_recorded(self) -> int:
        return len(self.records)

    def labels_of(self, pid: int) -> List[Tuple[int, str]]:
        """The (tick, cycle-label) sequence one processor attempted."""
        return [
            (record.time, record.labels[pid])
            for record in self.records
            if pid in record.labels
        ]

    def watched_series(self, address: int) -> List[Tuple[int, int]]:
        """The (tick, value) series of a watched cell."""
        return [
            (record.time, record.watched_values[address])
            for record in self.records
            if address in record.watched_values
        ]

    def downtime_of(self, pid: int) -> int:
        """Ticks the processor spent failed."""
        return sum(1 for record in self.records if pid in record.failed)


def render_timeline(
    tracer: Tracer,
    ledger,
    pids: Optional[Sequence[int]] = None,
    start: int = 1,
    width: int = 72,
) -> str:
    """ASCII per-processor timeline of a traced run.

    ``ledger`` supplies the realized failure pattern so the F/R marks
    land on exact event ticks.
    """
    if not tracer.records:
        return "(empty trace)"
    first_tick = max(start, tracer.records[0].time)
    last_tick = min(tracer.records[-1].time, first_tick + width - 1)
    by_time = {record.time: record for record in tracer.records}

    failure_marks: Set[Tuple[int, int]] = set()
    restart_marks: Set[Tuple[int, int]] = set()
    for event in ledger.pattern:
        key = (event.pid, event.time)
        if event.is_failure():
            failure_marks.add(key)
        else:
            restart_marks.add(key)

    all_pids: List[int] = sorted(
        pids
        if pids is not None
        else {
            pid
            for record in tracer.records
            for pid in (*record.running, *record.failed, *record.halted)
        }
    )

    lines = []
    for pid in all_pids:
        cells = []
        for tick in range(first_tick, last_tick + 1):
            record = by_time.get(tick)
            if record is None:
                cells.append(" ")
                continue
            if (pid, tick) in failure_marks:
                cells.append("F")
            elif (pid, tick) in restart_marks:
                cells.append("R")
            elif pid in record.running:
                cells.append("#")
            elif pid in record.failed:
                cells.append(".")
            elif pid in record.halted:
                cells.append("E")
            else:
                cells.append(" ")
        lines.append(f"pid {pid:>4} |{''.join(cells)}")
    lines.append(f"         ^ tick {first_tick} .. {last_tick}"
                 f"  (# run, . down, F fail, R restart, E halted)")
    return "\n".join(lines)
