"""Concurrent-write resolution policies for the CRCW PRAM variants.

The paper's algorithms run on the COMMON CRCW PRAM ("all concurrently
writing processors write the same value", Section 2.1) and Theorem 4.1
states which source models can be simulated on which target models
(EREW/CREW/WEAK/COMMON on COMMON; ARBITRARY and STRONG on machines of the
same type).  We implement every policy so both sides of that statement are
exercisable.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.pram.errors import ReadConflictError, WriteConflictError

#: A pending concurrent write: ``(pid, value)``.
PidValue = Tuple[int, int]


class WritePolicy:
    """Base class: resolves the concurrent writes landing on one cell."""

    #: Human-readable policy name (matches the paper's terminology).
    name = "abstract"
    #: Whether two processors may read the same cell in one tick.
    allows_concurrent_reads = True
    #: Whether two processors may write the same cell in one tick.
    allows_concurrent_writes = True
    #: Whether ``resolve(address, [(pid, value)])`` with a single writer
    #: is guaranteed to return ``value`` without raising and without
    #: mutating policy state.  When True the machine's fast path skips
    #: the resolve call entirely for addresses with exactly one writer
    #: (the overwhelmingly common case); stateful policies whose choice
    #: depends on *how many times* resolve ran must set this False.
    singleton_resolve_is_identity = True
    #: Whether ``resolve(address, writers)`` with two or more writers
    #: that all write the same value is guaranteed to return that value
    #: without raising and without mutating policy state.  When True
    #: (and singleton resolution is the identity) the machine's fast
    #: path keeps agreeing concurrent writes as one write — the normal
    #: tick on the COMMON CRCW PRAM, where every active processor
    #: writes one value into one cell.  It is not implied by
    #: ``singleton_resolve_is_identity``: CREW and EREW forbid
    #: concurrent writes even when they agree.
    agreeing_resolve_is_identity = False

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        """Return the value stored at ``address`` given ``writers``.

        ``writers`` is non-empty and sorted by PID (the machine guarantees
        both).  Policies that forbid concurrency raise
        :class:`WriteConflictError`.
        """
        raise NotImplementedError

    def check_reads(self, address: int, reader_pids: Sequence[int]) -> None:
        """Validate the set of processors reading ``address`` this tick."""
        if not self.allows_concurrent_reads and len(reader_pids) > 1:
            raise ReadConflictError(
                f"{self.name}: {len(reader_pids)} processors "
                f"(pids {list(reader_pids)}) concurrently read cell {address}"
            )


class CommonCrcw(WritePolicy):
    """COMMON CRCW: concurrent writers must agree on the value."""

    name = "COMMON"
    agreeing_resolve_is_identity = True

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        first_value = writers[0][1]
        for pid, value in writers[1:]:
            if value != first_value:
                raise WriteConflictError(
                    f"COMMON CRCW violation at cell {address}: pid "
                    f"{writers[0][0]} writes {first_value} but pid {pid} "
                    f"writes {value}"
                )
        return first_value


class ArbitraryCrcw(WritePolicy):
    """ARBITRARY CRCW: any single writer's value survives.

    The model allows any choice; for reproducibility the simulator commits
    to the *lowest PID*.  (Algorithms must be correct for every choice;
    tests exercise other choices via :class:`RotatingArbitraryCrcw`.)
    """

    name = "ARBITRARY"
    agreeing_resolve_is_identity = True

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        return writers[0][1]


class RotatingArbitraryCrcw(WritePolicy):
    """ARBITRARY CRCW resolving to a rotating writer index.

    A deterministic but non-lowest-PID arbitrary rule, used by tests to
    check that algorithms do not silently depend on the lowest-PID choice.
    """

    name = "ARBITRARY(rotating)"
    # resolve() advances the rotation counter even for single-writer
    # addresses, so skipping those calls would change later choices.
    singleton_resolve_is_identity = False

    def __init__(self) -> None:
        self._counter = 0

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        self._counter += 1
        return writers[self._counter % len(writers)][1]


class PriorityCrcw(WritePolicy):
    """PRIORITY CRCW: the lowest-PID writer wins (by definition)."""

    name = "PRIORITY"
    agreeing_resolve_is_identity = True

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        return writers[0][1]


class StrongCrcw(WritePolicy):
    """STRONG CRCW: the maximum written value survives."""

    name = "STRONG"
    agreeing_resolve_is_identity = True

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        return max(value for _pid, value in writers)


class CollisionCrcw(WritePolicy):
    """COLLISION CRCW: disagreeing concurrent writes leave a collision mark."""

    name = "COLLISION"
    agreeing_resolve_is_identity = True

    def __init__(self, collision_value: int = -1) -> None:
        self.collision_value = collision_value

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        values = {value for _pid, value in writers}
        if len(values) > 1:
            return self.collision_value
        return writers[0][1]


class Crew(WritePolicy):
    """CREW: concurrent reads allowed, concurrent writes forbidden."""

    name = "CREW"
    allows_concurrent_writes = False

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        if len(writers) > 1:
            raise WriteConflictError(
                f"CREW violation at cell {address}: pids "
                f"{[pid for pid, _ in writers]} write concurrently"
            )
        return writers[0][1]


class Erew(Crew):
    """EREW: both concurrent reads and concurrent writes forbidden."""

    name = "EREW"
    allows_concurrent_reads = False

    def resolve(self, address: int, writers: Sequence[PidValue]) -> int:
        if len(writers) > 1:
            raise WriteConflictError(
                f"EREW violation at cell {address}: pids "
                f"{[pid for pid, _ in writers]} write concurrently"
            )
        return writers[0][1]


_POLICIES = {
    "COMMON": CommonCrcw,
    "ARBITRARY": ArbitraryCrcw,
    "PRIORITY": PriorityCrcw,
    "STRONG": StrongCrcw,
    "COLLISION": CollisionCrcw,
    "CREW": Crew,
    "EREW": Erew,
}


def policy_by_name(name: str) -> WritePolicy:
    """Instantiate a policy from its paper-style name (case-insensitive)."""
    try:
        return _POLICIES[name.upper()]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown PRAM policy {name!r}; known: {known}") from None


def policy_names() -> List[str]:
    """All registered policy names."""
    return sorted(_POLICIES)
