"""The update-cycle protocol between processor programs and the machine.

Section 2.1 of the paper: *"Each update cycle consists of reading a small
fixed number of shared memory cells (e.g., <= 4), performing some fixed
time computation, and writing a small fixed number of shared memory cells
(e.g., <= 2)."*  Update cycles are the unit of accounting — completed work
charges one unit per completed cycle — and the unit of failure granularity:
a processor may fail before or after any atomic write of a cycle, never
inside one.

A processor program is a Python generator that *yields* :class:`Cycle`
objects.  Reads are declared up front; the write set is either a static
tuple or a pure function of the read values (the "fixed time computation").
The machine sends the read values back into the generator once the cycle
completes, so the program's local state between yields models the
processor's private memory (which a failure erases, by discarding the
generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.pram.errors import ProgramError


@dataclass(frozen=True)
class Write:
    """One atomic word write: ``cell[address] = value``."""

    address: int
    value: int


WritesSpec = Union[
    Tuple[Write, ...],
    Callable[[Tuple[int, ...]], Sequence[Write]],
]

#: One read request of a cycle: a fixed address, or a function of the
#: values read so far in this cycle returning the next address (or None
#: to skip the read — the value slot is then 0).  Dependent addresses are
#: legal because all reads of a tick observe the memory state at the
#: start of the tick; only the *addresses* chain, never the data.
ReadSpec = Union[int, Callable[[Tuple[int, ...]], Optional[int]]]

#: Declares a unit-cost full-memory read (Theorem 3.2's strong model).
SNAPSHOT = "snapshot"


@dataclass(frozen=True)
class Cycle:
    """One update cycle request.

    Attributes:
        reads: read requests performed at the start of the cycle (see
            :data:`ReadSpec`), or the :data:`SNAPSHOT` marker for a
            unit-cost full-memory read (only legal on machines created
            with ``allow_snapshot=True``).
        writes: either a tuple of :class:`Write` (when the writes do not
            depend on this cycle's reads) or a pure function mapping the
            tuple of read values to a sequence of :class:`Write`.
        label: free-form tag surfaced to adversaries and traces.
    """

    reads: Union[Tuple[ReadSpec, ...], str] = ()
    writes: WritesSpec = ()
    label: str = ""

    @property
    def is_snapshot(self) -> bool:
        return self.reads == SNAPSHOT

    def read_specs(self) -> Tuple[ReadSpec, ...]:
        if self.is_snapshot:
            return ()
        if not isinstance(self.reads, tuple):
            raise ProgramError(
                f"cycle reads must be a tuple of read specs or SNAPSHOT, "
                f"got {self.reads!r}"
            )
        return self.reads

    def materialize_writes(self, values: Tuple[int, ...]) -> Tuple[Write, ...]:
        """Run the cycle's compute step and return its write set."""
        if callable(self.writes):
            produced = self.writes(values)
        else:
            produced = self.writes
        writes = tuple(produced)
        for write in writes:
            if not isinstance(write, Write):
                raise ProgramError(
                    f"cycle produced a non-Write entry: {write!r} "
                    f"(label={self.label!r})"
                )
        return writes


def expect_cycle(pid: int, item: object) -> Cycle:
    """``item`` if it is a :class:`Cycle`, else the standard error.

    The one check every lane applies to what a program hands the
    machine: a generator's yield, and a task set's cycle when a
    compiled kernel advances into it.
    """
    if not isinstance(item, Cycle):
        raise ProgramError(
            f"pid {pid}: program yielded {item!r}, expected a Cycle"
        )
    return item


def read_cycle(*addresses: int, label: str = "") -> Cycle:
    """A cycle that only reads (no writes) — e.g. polling a flag."""
    return Cycle(reads=tuple(addresses), label=label)


def write_cycle(*writes: Write, label: str = "") -> Cycle:
    """A cycle that only writes constant values."""
    return Cycle(writes=tuple(writes), label=label)


def noop_cycle(label: str = "idle") -> Cycle:
    """A cycle with no reads and no writes (a completed no-op still counts
    as one unit of completed work — waiting is not free)."""
    return Cycle(label=label)


def snapshot_cycle(
    compute: Callable[[Tuple[int, ...]], Sequence[Write]],
    label: str = "snapshot",
) -> Cycle:
    """A unit-cost full-memory read followed by ``compute`` (Theorem 3.2).

    ``compute`` receives the entire memory contents as its value tuple.
    """
    return Cycle(reads=SNAPSHOT, writes=compute, label=label)
