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

from dataclasses import FrozenInstanceError
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.pram.errors import ProgramError


class Write:
    """One atomic word write: ``cell[address] = value``.

    An immutable record with the interface of a frozen dataclass: the
    same constructor, field-wise ``==`` and ``hash`` against records of
    the same class only (so ``Write(1, 2) != (1, 2)``), the same
    ``repr``, and :class:`dataclasses.FrozenInstanceError` on assignment
    or deletion.

    It is written by hand with ``__slots__`` rather than as a dataclass
    because every observed write of a compiled kernel and every write
    of a generator cycle builds one.  A frozen dataclass's ``__init__``
    stores each field through ``object.__setattr__``; storing through
    the slot descriptors, as here, is markedly cheaper (figures in
    docs/PERFORMANCE.md).  ``dataclass(slots=True)`` does not exist on
    Python 3.9 and keeps the ``object.__setattr__`` stores; a NamedTuple
    is faster still but equals a plain tuple.
    """

    __slots__ = ("address", "value")
    __match_args__ = ("address", "value")

    address: int
    value: int

    def __init__(self, address: int, value: int) -> None:
        _set_write_address(self, address)
        _set_write_value(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.address, self.value) == (other.address, other.value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.address, self.value))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}"
            f"(address={self.address!r}, value={self.value!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.address, self.value))


_set_write_address = Write.address.__set__  # type: ignore[attr-defined]
_set_write_value = Write.value.__set__  # type: ignore[attr-defined]


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

    A hand-written slotted immutable record, for the reason given on
    :class:`Write`: every generator cycle, task cycle and kernel
    ``current_cycle`` builds one.  It keeps the frozen dataclass's
    constructor and defaults, value equality and hash (same class
    only), ``repr`` and :class:`dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("reads", "writes", "label")
    __match_args__ = ("reads", "writes", "label")

    reads: Union[Tuple[ReadSpec, ...], str]
    writes: WritesSpec
    label: str

    def __init__(
        self,
        reads: Union[Tuple[ReadSpec, ...], str] = (),
        writes: WritesSpec = (),
        label: str = "",
    ) -> None:
        _set_cycle_reads(self, reads)
        _set_cycle_writes(self, writes)
        _set_cycle_label(self, label)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.reads, self.writes, self.label) == (
                other.reads, other.writes, other.label
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.reads, self.writes, self.label))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(reads={self.reads!r}, "
            f"writes={self.writes!r}, label={self.label!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.reads, self.writes, self.label))

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


_set_cycle_reads = Cycle.reads.__set__  # type: ignore[attr-defined]
_set_cycle_writes = Cycle.writes.__set__  # type: ignore[attr-defined]
_set_cycle_label = Cycle.label.__set__  # type: ignore[attr-defined]


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
