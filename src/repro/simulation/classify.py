"""The ideal synchronous PRAM, and the PRAM class a program needs.

Theorem 4.1's correctness statement is *semantic transparency*: for any
failure pattern, the robust execution of a program must end with the
exact memory the ideal synchronous PRAM produces.  This module is that
ideal machine, written with none of the Write-All machinery: per step,
every simulated processor's reads (chained read specs included) see the
previous step's memory, then every write lands.  :func:`ideal_run`
returns the final memory; the fuzz driver, its fixtures and the
simulation tests check the robust executors against it.

Theorem 4.1 also distinguishes source models: "EREW, CREW, and WEAK and
COMMON CRCW PRAM algorithms are simulated on fail-stop COMMON CRCW
PRAMs; ARBITRARY and STRONG CRCW PRAMs are simulated on fail-stop CRCW
PRAMs of the same type" (and PRIORITY cannot be simulated directly,
Remark 4).

A :class:`SimProgram` is data: its concurrency class depends on the
input.  :func:`classify_program` runs the program on the same ideal
machine for a given input and reports the weakest classical model
consistent with the observed access patterns:

* ``EREW`` — no cell is read or written by two processors in one step;
* ``CREW`` — concurrent reads occur, writes stay exclusive;
* ``COMMON`` — concurrent writes occur but all writers agree;
* ``ARBITRARY`` — concurrent writers disagree (the robust executor's
  commit order then picks a winner, which is exactly ARBITRARY
  semantics; programs needing STRONG or PRIORITY resolution are not
  faithfully executable and should be rejected by the caller).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from repro.simulation.step import SimProgram

CLASSES = ("EREW", "CREW", "COMMON", "ARBITRARY")


def _synchronous_run(
    program: SimProgram,
    initial: Optional[Sequence[int]],
    observe: Callable[[int, Dict[int, int], Dict[int, List[int]]], None],
) -> List[int]:
    """Run ``program`` on the ideal synchronous PRAM; return its memory.

    ``observe(index, reads, writes)`` sees each step's accesses before
    its writes land: ``reads`` counts the reads of each cell, ``writes``
    lists each written cell's values in PID order.  Every read resolves
    through :meth:`SimProgram.read_address`; one that resolves to
    ``None`` reads nothing and yields 0.  A processor with no write
    addresses neither reads nor computes, as in both executors.  Where
    several processors write one cell, the lowest PID's value lands.
    """
    memory = program.initial_memory(initial)
    for index, step in enumerate(program.steps):
        reads: Dict[int, int] = defaultdict(int)
        writes: Dict[int, List[int]] = defaultdict(list)
        for processor in range(program.width):
            addresses = step.write_addresses(processor)
            if not addresses:
                continue
            values: List[int] = []
            for spec in step.read_addresses(processor):
                address = program.read_address(
                    index, processor, spec, tuple(values)
                )
                if address is None:
                    values.append(0)
                    continue
                reads[address] += 1
                values.append(memory[address])
            outputs = step.compute(processor, tuple(values))
            for address, value in zip(addresses, outputs):
                writes[address].append(value)
        observe(index, reads, writes)
        for address, written in writes.items():
            memory[address] = written[0]
    return memory


def ideal_run(
    program: SimProgram, initial: Optional[Sequence[int]] = None
) -> List[int]:
    """Final memory of the fault-free synchronous execution.

    Raises ``ValueError`` when two writes hit one cell in one step: the
    exclusive-write ideal machine has no single answer there, so a
    hand-edited fuzz fixture fails loudly instead of returning a bogus
    expectation.
    """

    def exclusive(index: int, reads, writes) -> None:
        for address, written in writes.items():
            if len(written) > 1:
                raise ValueError(
                    f"{program.name} step {index}: cell {address} written "
                    f"twice; the exclusive-write ideal PRAM is undefined"
                )

    return _synchronous_run(program, initial, exclusive)


def classify_program(
    program: SimProgram, initial_memory: Sequence[int]
) -> str:
    """The weakest PRAM class consistent with this program on this input."""
    rank = 0  # index into CLASSES

    def rank_step(index: int, reads, writes) -> None:
        nonlocal rank
        if any(len(set(written)) > 1 for written in writes.values()):
            rank = max(rank, 3)
        elif any(len(written) > 1 for written in writes.values()):
            rank = max(rank, 2)
        elif any(count > 1 for count in reads.values()):
            rank = max(rank, 1)

    _synchronous_run(program, initial_memory, rank_step)
    return CLASSES[rank]


def simulation_is_deterministic(program_class: str) -> bool:
    """Whether the robust executor reproduces one canonical outcome.

    EREW/CREW/COMMON programs have a unique synchronous semantics; the
    executor realizes it exactly for any failure pattern.  ARBITRARY
    programs are executed with *some* winner per conflicted cell (legal
    for the ARBITRARY model) but the winner may depend on the failure
    pattern.
    """
    return program_class in ("EREW", "CREW", "COMMON")
