"""The iterated Write-All executor (Section 4.3, Theorem 4.1).

Every simulated step runs as two robust Write-All instances over
``width`` idempotent tasks each:

* **compute phase** — task ``i`` re-reads simulated processor ``i``'s
  inputs (stable: nothing writes simulated memory during this phase) and
  stores each output value into a private staging slot; one staging
  write per update cycle, so the tasks compose with the V/W engine's
  write budget;
* **commit phase** — task ``i`` copies its staging slots into the
  simulated memory cells (addresses are data-independent, so the commit
  needs no address indirection).

Because a phase's Write-All array ``x`` only reaches all-ones when every
task completed, a finished phase certifies the simulated step; both
re-execution (failures) and concurrent execution (several processors at
one leaf, COMMON CRCW) write identical values.

Substitution note (see DESIGN.md): the paper carries the Write-All
scratch structures across steps with generation counters ([KPS 90],
[Shv 89]); we start each phase with fresh scratch structures instead —
an accounting-neutral simplification (clearing is O(size) host work, not
charged machine work).  Phase boundaries also restart failed processors,
which is a legal adversary behavior in the restart model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.algorithm_vx import AlgorithmVX
from repro.core.base import WriteAllAlgorithm, done_predicate
from repro.core.tasks import CycleFactoryTasks
from repro.pram.compiled import resolve_kernel
from repro.pram.vectorized import resolve_vectorized
from repro.pram.cycles import Cycle, Write
from repro.pram.ledger import RunLedger
from repro.pram.machine import Machine
from repro.pram.memory import MemoryReader, SharedMemory
from repro.pram.policies import WritePolicy
from repro.simulation.step import SimProgram
from repro.util.bits import next_power_of_two


@dataclass
class PhaseRecord:
    """Accounting for one Write-All phase of one simulated step."""

    step_index: int
    phase: str  # "compute" | "commit"
    n_tasks: int
    ledger: RunLedger
    solved: bool

    @property
    def completed_work(self) -> int:
        return self.ledger.completed_work

    @property
    def pattern_size(self) -> int:
        return self.ledger.pattern_size


@dataclass
class SimulationResult:
    """Outcome of robustly executing a simulated PRAM program."""

    program: str
    width: int
    p: int
    algorithm: str
    phases: List[PhaseRecord] = field(default_factory=list)
    memory: List[int] = field(default_factory=list)
    solved: bool = True

    @property
    def steps_executed(self) -> int:
        return len({record.step_index for record in self.phases})

    @property
    def total_work(self) -> int:
        """Total completed work S across all phases."""
        return sum(record.completed_work for record in self.phases)

    @property
    def total_pattern_size(self) -> int:
        return sum(record.pattern_size for record in self.phases)

    def step_work(self, step_index: int) -> int:
        return sum(
            record.completed_work
            for record in self.phases
            if record.step_index == step_index
        )

    def step_overhead_ratio(self, step_index: int) -> float:
        """Per-simulated-step sigma = S_step / (N + |F|_step) (Thm 4.1)."""
        records = [r for r in self.phases if r.step_index == step_index]
        if not records:
            raise ValueError(
                f"step {step_index} of {self.program!r} has no recorded "
                f"phases (a write-free step is skipped as a no-op), so "
                f"its overhead ratio sigma is undefined"
            )
        pattern = sum(r.pattern_size for r in records)
        n = max(r.n_tasks for r in records)
        if n + pattern == 0:
            raise ValueError(
                f"step {step_index} of {self.program!r} has zero pattern "
                f"size and zero tasks; sigma = S / (N + |F|) is undefined"
            )
        return self.step_work(step_index) / (n + pattern)

    @property
    def max_step_overhead_ratio(self) -> float:
        """The largest per-step sigma over the steps that ran phases."""
        indexes = {record.step_index for record in self.phases}
        if not indexes:
            raise ValueError(
                f"{self.program!r} has no recorded phases (every step is "
                f"write-free and skipped as a no-op), so its overhead "
                f"ratio sigma is undefined"
            )
        return max(self.step_overhead_ratio(index) for index in indexes)


class RobustSimulator:
    """Executes N-processor PRAM programs on P faulty processors."""

    def __init__(
        self,
        p: int,
        algorithm: Optional[WriteAllAlgorithm] = None,
        adversary: Optional[object] = None,
        policy: Optional[WritePolicy] = None,
        max_ticks_per_phase: int = 2_000_000,
        fast_path: bool = True,
        fast_forward: bool = True,
        compiled: bool = True,
        vectorized: "Union[bool, str]" = False,
    ) -> None:
        if p <= 0:
            raise ValueError(f"simulator needs p > 0, got {p}")
        self.p = p
        self.algorithm = algorithm if algorithm is not None else AlgorithmVX()
        self.adversary = adversary
        self.policy = policy
        self.max_ticks_per_phase = max_ticks_per_phase
        # Lane selection, mirroring solve_write_all: callers pass a
        # registry lane's switches (repro.pram.lanes,
        # ``Lane.solver_kwargs()``).  The fuzz driver runs
        # every program through all available lanes.  The robust phases
        # always use non-trivial task sets (CycleFactoryTasks): X's,
        # V's, W's and VX's compiled kernels carry them wherever the
        # lane enables kernels (the machine interprets the task cycles),
        # and every vectorized_program hook gates them to None, so the
        # auto lane runs the compiled kernels here.
        self.fast_path = fast_path
        self.fast_forward = fast_forward
        self.compiled = compiled
        self.vectorized = vectorized

    def execute(
        self, program: SimProgram, initial_memory: Optional[List[int]] = None
    ) -> SimulationResult:
        """Run every step of ``program`` robustly; return the outcome."""
        program.validate()
        simulated = program.initial_memory(initial_memory)

        if self.adversary is not None and hasattr(self.adversary, "reset"):
            self.adversary.reset()

        result = SimulationResult(
            program=program.name,
            width=program.width,
            p=self.p,
            algorithm=self.algorithm.name,
        )
        for step_index, _step, slots in program.writing_steps():
            staging = [0] * (program.width * slots)
            if not all(
                self._run_phase(
                    result, program, step_index, phase, slots, staging,
                    simulated,
                )
                for phase in ("compute", "commit")
            ):
                result.solved = False
                break
        result.memory = simulated
        return result

    # ------------------------------------------------------------------ #

    def _run_phase(
        self,
        result: SimulationResult,
        program: SimProgram,
        step_index: int,
        phase: str,
        slots: int,
        staging: List[int],
        simulated: List[int],
    ) -> bool:
        n_tasks = next_power_of_two(program.width)
        layout = self.algorithm.build_layout(n_tasks, self.p)
        staging_base = layout.size
        sim_base = staging_base + len(staging)
        total_size = sim_base + len(simulated)

        memory = SharedMemory(total_size)
        self.algorithm.initialize_memory(memory, layout)
        memory.load(staging, staging_base)
        memory.load(simulated, sim_base)

        factory = _compute_task_factory if phase == "compute" else _commit_task_factory
        tasks = CycleFactoryTasks(
            cycles_per_task=slots,
            factory=factory(program, step_index, slots, staging_base,
                            sim_base),
        )
        machine = Machine(
            num_processors=self.p,
            memory=memory,
            policy=self.policy,
            adversary=self.adversary,
            allow_snapshot=self.algorithm.requires_snapshot,
            fast_path=self.fast_path,
            fast_forward=self.fast_forward,
            context={
                "layout": layout,
                "algorithm": self.algorithm.name,
                "phase": phase,
                "step": step_index,
            },
        )
        machine.load_program(
            self.algorithm.program(layout, tasks),
            compiled_program=resolve_kernel(
                self.algorithm, layout, tasks, self.compiled
            ),
            vectorized_program=resolve_vectorized(
                self.algorithm, layout, tasks, self.vectorized, self.compiled
            ),
        )
        ledger = machine.run(
            until=done_predicate(layout),
            max_ticks=self.max_ticks_per_phase,
            raise_on_limit=False,
        )
        solved = ledger.goal_reached
        reader = MemoryReader(memory)
        staging[:] = reader.region(staging_base, len(staging))
        simulated[:] = reader.region(sim_base, len(simulated))
        result.phases.append(
            PhaseRecord(
                step_index=step_index,
                phase=phase,
                n_tasks=n_tasks,
                ledger=ledger,
                solved=solved,
            )
        )
        return solved


def _compute_task_factory(
    program: SimProgram, index: int, slots: int, staging_base: int,
    sim_base: int,
):
    """Compute-phase tasks: stage each simulated write's value."""
    step = program.steps[index]
    width = program.width

    def factory(element: int, pid: int) -> List[Cycle]:
        if element >= width:
            return [Cycle(label="sim:pad")] * slots
        write_addresses = step.write_addresses(element)
        reads = tuple(
            _translate_read(program, index, element, spec, sim_base)
            for spec in step.read_addresses(element)
        )
        cycles: List[Cycle] = []
        for slot in range(slots):
            if slot >= len(write_addresses):
                cycles.append(Cycle(label="sim:pad"))
                continue

            def writes(
                values: Tuple[int, ...],
                element: int = element,
                slot: int = slot,
            ) -> Tuple[Write, ...]:
                outputs = step.compute(element, values)
                return (
                    Write(staging_base + element * slots + slot,
                          outputs[slot]),
                )

            cycles.append(
                Cycle(reads=reads, writes=writes, label=f"sim:{step.label}")
            )
        return cycles

    return factory


def _commit_task_factory(
    program: SimProgram, index: int, slots: int, staging_base: int,
    sim_base: int,
):
    """Commit-phase tasks: install staged values into simulated memory."""
    step = program.steps[index]
    width = program.width

    def factory(element: int, pid: int) -> List[Cycle]:
        if element >= width:
            return [Cycle(label="sim:pad")] * slots
        write_addresses = step.write_addresses(element)
        cycles: List[Cycle] = []
        for slot in range(slots):
            if slot >= len(write_addresses):
                cycles.append(Cycle(label="sim:pad"))
                continue
            source = staging_base + element * slots + slot
            target = sim_base + write_addresses[slot]

            def writes(
                values: Tuple[int, ...], target: int = target
            ) -> Tuple[Write, ...]:
                return (Write(target, values[0]),)

            cycles.append(
                Cycle(reads=(source,), writes=writes, label="sim:commit")
            )
        return cycles

    return factory


def _translate_read(
    program: SimProgram, index: int, processor: int, spec, sim_base: int
):
    """Offset a simulated read spec into host addresses.

    A fixed address was range-checked by :meth:`SimProgram.validate`; a
    chained one is checked as it resolves, by
    :meth:`SimProgram.read_address`.
    """
    if isinstance(spec, int):
        return sim_base + spec
    def translated(so_far: Tuple[int, ...]):
        address = program.read_address(index, processor, spec, so_far)
        return None if address is None else sim_base + address
    return translated
