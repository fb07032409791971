"""Seeded random-program generator for the Theorem 4.1 fuzzer.

Programs are *declarative*: a :class:`GeneratedProgram` is a table of
per-processor :class:`ProcessorAction` rows (read addresses, write
addresses, an opcode and a constant), not closures.  That buys three
properties the fuzzer needs:

* **JSON round-trip** — a failing program serializes into a replayable
  fixture (see :mod:`repro.fuzz.fixtures`) byte-for-byte;
* **shrinkability** — the delta-debugger edits the table, not code;
* **version-stable determinism** — every draw is a pure SHA-256
  function of ``(seed, coordinates)``, the same construction as
  :class:`repro.experiments.chaos.ChaosPolicy`.  ``random.Random``
  method behavior has shifted across CPython releases; hashes have not,
  so a CI failure on Python 3.12 replays identically on 3.9.

Generated programs respect the model's update-cycle budget (reads <= 4,
writes <= 2 per simulated processor per step) and keep write sets
disjoint across processors within a step (exclusive writes), so the
ideal synchronous PRAM (:func:`repro.simulation.classify.ideal_run`)
has one answer and the robust executor must reproduce it *exactly* for
every failure pattern.  Data dependencies are acyclic by construction:
programs are straight-line, and within a step every read observes the
previous step's memory (the two-phase executor's synchronous
semantics), so the step's dependence graph is bipartite reads ->
writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.simulation.step import SimProgram, SimStep

#: Opcodes a generated action may carry.  Semantics live in
#: :func:`apply_op`, which the action table's SimStep computes with;
#: the robust executors and the ideal PRAM run that one SimStep, so
#: what is differentially tested is the robust execution machinery,
#: not the arithmetic.
OPS: Tuple[str, ...] = ("sum", "max", "min", "const", "copy", "xor")

#: Values are kept in a bounded ring so long programs cannot blow up
#: fixture files; the modulus is prime so "sum" does not silently
#: collapse onto a power-of-two mask.
VALUE_MODULUS = 1_000_003

#: Program bounds no caller varies (``GeneratorConfig`` holds the two
#: that ``repro fuzz`` sets).  Reads and writes run up to the model's
#: update-cycle budget.
MIN_WIDTH = 1
EXTRA_MEMORY = 4     # memory_size - width upper bound
MIN_STEPS = 1
MAX_READS = 4
MAX_WRITES = 2
VALUE_RANGE = 50     # initial memory cells in [0, VALUE_RANGE)
WRITE_DENSITY = 0.8  # P(a processor writes at all) per step


def unit_draw(seed: int, *parts: object) -> float:
    """A uniform [0, 1) draw that is a pure function of its arguments.

    The same hash-derived construction as the chaos policy's draws:
    there is no generator state to keep in sync, and the value is
    identical on every Python version and platform.
    """
    material = "|".join(str(part) for part in (seed,) + parts)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


def int_draw(seed: int, low: int, high: int, *parts: object) -> int:
    """A uniform integer in ``[low, high]`` (inclusive), hash-derived."""
    if high < low:
        raise ValueError(f"empty draw range [{low}, {high}]")
    span = high - low + 1
    return low + int(unit_draw(seed, *parts) * span) % span


def permutation_draw(seed: int, n: int, *parts: object) -> List[int]:
    """A deterministic permutation of ``range(n)`` (Fisher-Yates over
    hash draws)."""
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int_draw(seed, 0, i, *parts, "swap", i)
        items[i], items[j] = items[j], items[i]
    return items


def apply_op(op: str, values: Tuple[int, ...], constant: int,
             n_outputs: int) -> Tuple[int, ...]:
    """Evaluate an action's opcode over the values it read.

    Output slot ``j`` gets ``base + j`` (mod :data:`VALUE_MODULUS`) so
    an action writing two cells writes two *different* values — a
    commit that swaps or duplicates staging slots cannot hide.
    """
    if op == "sum":
        base = sum(values) + constant
    elif op == "max":
        base = max(values) if values else constant
    elif op == "min":
        base = min(values) if values else constant
    elif op == "const":
        base = constant
    elif op == "copy":
        base = values[0] if values else constant
    elif op == "xor":
        base = constant
        for value in values:
            base ^= value
    else:
        raise ValueError(f"unknown op {op!r}; known: {OPS}")
    return tuple((base + j) % VALUE_MODULUS for j in range(n_outputs))


@dataclass(frozen=True)
class ProcessorAction:
    """One simulated processor's behavior in one step."""

    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()
    op: str = "const"
    constant: int = 0

    def outputs(self, values: Tuple[int, ...]) -> Tuple[int, ...]:
        return apply_op(self.op, values, self.constant, len(self.writes))

    def to_json(self) -> Dict[str, object]:
        return {
            "reads": list(self.reads),
            "writes": list(self.writes),
            "op": self.op,
            "constant": self.constant,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ProcessorAction":
        return cls(
            reads=tuple(data["reads"]),
            writes=tuple(data["writes"]),
            op=str(data["op"]),
            constant=int(data["constant"]),
        )


class _TableStep(SimStep):
    """A SimStep backed by a row of ProcessorActions."""

    def __init__(self, actions: Sequence[ProcessorAction], label: str) -> None:
        self.actions = tuple(actions)
        self.label = label

    def read_addresses(self, processor: int):
        return self.actions[processor].reads

    def write_addresses(self, processor: int):
        return self.actions[processor].writes

    def compute(self, processor: int, values: Tuple[int, ...]):
        return self.actions[processor].outputs(values)


@dataclass(frozen=True)
class GeneratedProgram:
    """A declarative straight-line PRAM program (one action table per
    step)."""

    width: int
    memory_size: int
    steps: Tuple[Tuple[ProcessorAction, ...], ...]
    name: str = "fuzz"

    def to_sim_program(self) -> SimProgram:
        sim_steps = [
            _TableStep(actions, label=f"{self.name}:{index}")
            for index, actions in enumerate(self.steps)
        ]
        return SimProgram(
            width=self.width,
            memory_size=self.memory_size,
            steps=sim_steps,
            name=self.name,
        )

    def validate(self) -> None:
        """The action table's own checks, then :meth:`SimProgram.validate`.

        The table must give each processor one action, each action at
        most two writes, and each step exclusive writes; the read budget
        and the address ranges are the simulated program's checks.
        """
        for index, actions in enumerate(self.steps):
            if len(actions) != self.width:
                raise ValueError(
                    f"{self.name} step {index}: {len(actions)} actions "
                    f"for width {self.width}"
                )
            seen_writes: Dict[int, int] = {}
            for processor, action in enumerate(actions):
                if len(action.writes) > MAX_WRITES:
                    raise ValueError(
                        f"{self.name} step {index} processor {processor}: "
                        f"{len(action.writes)} writes exceed the budget of "
                        f"{MAX_WRITES}"
                    )
                for address in action.writes:
                    if address in seen_writes:
                        raise ValueError(
                            f"{self.name} step {index}: processors "
                            f"{seen_writes[address]} and {processor} both "
                            f"write cell {address} (writes must be "
                            f"exclusive for a deterministic ideal run)"
                        )
                    seen_writes[address] = processor
        self.to_sim_program().validate()

    def to_json(self) -> Dict[str, object]:
        return {
            "width": self.width,
            "memory_size": self.memory_size,
            "name": self.name,
            "steps": [
                [action.to_json() for action in actions]
                for actions in self.steps
            ],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "GeneratedProgram":
        return cls(
            width=int(data["width"]),
            memory_size=int(data["memory_size"]),
            name=str(data.get("name", "fuzz")),
            steps=tuple(
                tuple(ProcessorAction.from_json(action) for action in actions)
                for actions in data["steps"]
            ),
        )


@dataclass(frozen=True)
class GeneratorConfig:
    """The two program bounds ``repro fuzz`` sets.

    The defaults keep instances tiny — the point is breadth (many
    seeds) rather than depth, and five lanes x three passes multiply
    every iteration's cost.
    """

    max_width: int = 5
    max_steps: int = 4

    def __post_init__(self) -> None:
        if self.max_width < MIN_WIDTH:
            raise ValueError(
                f"bad width bounds [{MIN_WIDTH}, {self.max_width}]"
            )
        if self.max_steps < MIN_STEPS:
            raise ValueError(
                f"bad step bounds [{MIN_STEPS}, {self.max_steps}]"
            )


#: The fuzzer's default bounds.
DEFAULT_CONFIG = GeneratorConfig()


def generate_program(
    seed: int, config: GeneratorConfig = DEFAULT_CONFIG
) -> GeneratedProgram:
    """The program for ``seed`` under ``config`` — pure and stable.

    Per step, a deterministic permutation of the address space is dealt
    out to processors as write sets (hence exclusive writes), and each
    processor draws up to :data:`MAX_READS` read addresses freely: any
    cell may be read by many processors (CREW), including cells written
    this step (reads observe the previous step — the synchronous-
    semantics trap the executor must not fall into).
    """
    width = int_draw(seed, MIN_WIDTH, config.max_width, "width")
    memory_size = width + int_draw(seed, 0, EXTRA_MEMORY, "mem")
    n_steps = int_draw(seed, MIN_STEPS, config.max_steps, "steps")
    steps: List[Tuple[ProcessorAction, ...]] = []
    for s in range(n_steps):
        pool = permutation_draw(seed, memory_size, "pool", s)
        cursor = 0
        actions: List[ProcessorAction] = []
        for i in range(width):
            n_reads = int_draw(seed, 0, MAX_READS, "reads", s, i)
            reads = tuple(
                int_draw(seed, 0, memory_size - 1, "read", s, i, k)
                for k in range(n_reads)
            )
            if unit_draw(seed, "writer", s, i) < WRITE_DENSITY:
                n_writes = min(
                    int_draw(seed, 1, MAX_WRITES, "writes", s, i),
                    memory_size - cursor,
                )
            else:
                n_writes = 0
            writes = tuple(sorted(pool[cursor:cursor + n_writes]))
            cursor += n_writes
            op = OPS[int_draw(seed, 0, len(OPS) - 1, "op", s, i)]
            constant = int_draw(seed, 0, VALUE_RANGE - 1, "const", s, i)
            actions.append(
                ProcessorAction(
                    reads=reads, writes=writes, op=op, constant=constant
                )
            )
        steps.append(tuple(actions))
    program = GeneratedProgram(
        width=width,
        memory_size=memory_size,
        steps=tuple(steps),
        name=f"fuzz[{seed}]",
    )
    program.validate()
    return program


def generate_initial_memory(seed: int, memory_size: int) -> List[int]:
    """The initial simulated memory for ``seed`` — pure and stable."""
    return [
        int_draw(seed, 0, VALUE_RANGE - 1, "init", address)
        for address in range(memory_size)
    ]

