"""Simulated N-processor PRAM programs.

A :class:`SimStep` describes one synchronous step of the *simulated*
machine: which simulated-memory cells each simulated processor reads,
which cells it writes (addresses must be data-independent — the standard
fetch/decode/execute decomposition of Section 4.3), and the values it
writes as a pure function of the values read.

Read addresses may chain (a later address computed from earlier values
— e.g. pointer jumping reads ``rank[next[i]]``); all reads observe the
previous step's memory, which the two-phase executor guarantees.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

#: A read request: a fixed simulated address, or a function of the
#: values read so far returning the next simulated address (None skips).
SimReadSpec = Union[int, Callable[[Tuple[int, ...]], Union[int, None]]]


class SimStep:
    """One synchronous step of the simulated PRAM."""

    #: Free-form label shown in traces.
    label = "step"

    def read_addresses(self, processor: int) -> Tuple[SimReadSpec, ...]:
        """Simulated cells processor ``processor`` reads (≤ 4)."""
        return ()

    def write_addresses(self, processor: int) -> Tuple[int, ...]:
        """Simulated cells it writes — data-independent addresses."""
        return ()

    def compute(self, processor: int, values: Tuple[int, ...]) -> Tuple[int, ...]:
        """Values written, aligned with :meth:`write_addresses`."""
        return ()


class FunctionStep(SimStep):
    """A step assembled from plain callables (handy for tests/examples)."""

    def __init__(
        self,
        reads: Callable[[int], Sequence[SimReadSpec]],
        writes: Callable[[int], Sequence[int]],
        compute: Callable[[int, Tuple[int, ...]], Sequence[int]],
        label: str = "step",
    ) -> None:
        self._reads = reads
        self._writes = writes
        self._compute = compute
        self.label = label

    def read_addresses(self, processor: int) -> Tuple[SimReadSpec, ...]:
        return tuple(self._reads(processor))

    def write_addresses(self, processor: int) -> Tuple[int, ...]:
        return tuple(self._writes(processor))

    def compute(self, processor: int, values: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(self._compute(processor, values))


class SimProgram:
    """A simulated PRAM program: width, memory size, and its steps."""

    def __init__(
        self,
        width: int,
        memory_size: int,
        steps: Sequence[SimStep],
        name: str = "program",
    ) -> None:
        if width <= 0:
            raise ValueError(f"program width must be positive, got {width}")
        if memory_size <= 0:
            raise ValueError(
                f"program memory size must be positive, got {memory_size}"
            )
        self.width = width
        self.memory_size = memory_size
        self.steps: List[SimStep] = list(steps)
        self.name = name

    def __len__(self) -> int:
        return len(self.steps)

    def initial_memory(self, initial: Optional[Sequence[int]]) -> List[int]:
        """``initial`` padded with zeros to :attr:`memory_size` cells.

        The one input rule of every executor and evaluator: a memory
        longer than the program's is a ``ValueError``.
        """
        memory = list(initial or ())
        if len(memory) > self.memory_size:
            raise ValueError(
                f"initial memory ({len(memory)} cells) "
                f"exceeds the program's memory size {self.memory_size}"
            )
        return memory + [0] * (self.memory_size - len(memory))

    def read_address(
        self,
        index: int,
        processor: int,
        spec: SimReadSpec,
        values: Tuple[int, ...],
    ) -> Optional[int]:
        """The simulated cell ``spec`` reads after ``values``, or None.

        The run-time half of :meth:`validate`, which cannot see where a
        chained read spec lands: the ideal PRAM and both robust
        executors resolve every read here, so an address outside the
        simulated memory is the same ``ValueError``, naming the step,
        the processor and the address, in all three.
        """
        address = spec(values) if callable(spec) else spec
        if address is None or (
            isinstance(address, int) and 0 <= address < self.memory_size
        ):
            return address
        raise ValueError(
            f"{self.name} step {index}: simulated processor {processor} "
            f"reads address {address!r}, out of simulated memory "
            f"[0, {self.memory_size})"
        )

    def writing_steps(self) -> Iterator[Tuple[int, SimStep, int]]:
        """``(index, step, slots)`` for each step that writes.

        ``slots`` is the step's widest write set, the cycles each of its
        tasks runs.  A step that writes nothing is a no-op, and no
        executor runs it.
        """
        for index, step in enumerate(self.steps):
            slots = max(
                len(step.write_addresses(processor))
                for processor in range(self.width)
            )
            if slots:
                yield index, step, slots

    def validate(self) -> None:
        """Static checks: read/write budgets and address ranges."""
        for index, step in enumerate(self.steps):
            for processor in range(self.width):
                reads = step.read_addresses(processor)
                if len(reads) > 4:
                    raise ValueError(
                        f"{self.name} step {index} ({step.label}): simulated "
                        f"processor {processor} reads {len(reads)} cells; "
                        f"the update-cycle budget allows 4"
                    )
                for spec in reads:
                    if isinstance(spec, int) and not (
                        0 <= spec < self.memory_size
                    ):
                        raise ValueError(
                            f"{self.name} step {index}: read address {spec} "
                            f"out of simulated memory [0, {self.memory_size})"
                        )
                writes = step.write_addresses(processor)
                for address in writes:
                    if not 0 <= address < self.memory_size:
                        raise ValueError(
                            f"{self.name} step {index}: write address "
                            f"{address} out of simulated memory "
                            f"[0, {self.memory_size})"
                        )
