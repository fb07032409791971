"""The persistent (no-reset) robust executor.

:class:`~repro.simulation.executor.RobustSimulator` builds a fresh
machine per Write-All phase — a documented substitution for the paper's
generation-counter technique.  :class:`PersistentSimulator` removes the
substitution: the *entire* simulated program runs as one machine run,
with :class:`~repro.core.generational.GenerationalX` executing the
2-per-step sequence of compute/commit task phases over generation-tagged
structures.  Consequences:

* failures and restarts span phase boundaries — a processor crashed in
  step 3's compute phase is still down in step 7 unless the adversary
  revives it;
* nothing is ever cleared by the harness: one shared memory, one
  ledger, one continuous failure pattern;
* the machine gets the caller's adversary (or none), stalls included;
* per-phase accounting comes from the run's own goal check, which
  stamps each generation's flag with the tick whose writes raised it.

The simulator optionally runs under the *parallel persistent memory*
model (Blelloch et al., "The Parallel Persistent Memory Model"): with a
:class:`CheckpointPolicy`, a processor's private state is checkpointed
to persistent storage every ``interval`` completed cycles at a charged
cost of ``cost`` no-op cycles, and a restart resumes from the last
checkpoint instead of the program top.  KS91's Theorem 4.3 simulation
overhead carries an ``M log N`` term precisely because every restart
re-enters the program with nothing but a PID; as checkpoint frequency
rises that term collapses toward the checkpoint overhead itself, which
is what the ``pmem-checkpoint`` bench scenario measures.

Checkpoint replay is not safe across generations: a processor restored
from its checkpoint can resume inside a generation whose flag is
already set and re-run that generation's task cycles and ``x:mark``
against current memory, which can leave a wrong answer or raise a
write conflict (docs/SIMULATION.md; the strict xfails in
``tests/simulation/test_checkpoint.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.generational import (
    GenerationalX,
    done_flags_predicate,
    plan_layout,
)
from repro.core.tasks import CycleFactoryTasks
from repro.pram.cycles import noop_cycle
from repro.pram.ledger import RunLedger
from repro.pram.machine import Machine
from repro.pram.memory import MemoryReader, SharedMemory
from repro.pram.policies import WritePolicy
from repro.simulation.executor import (
    _commit_task_factory,
    _compute_task_factory,
)
from repro.simulation.step import SimProgram
from repro.util.bits import next_power_of_two


class CheckpointPolicy:
    """Blelloch-style private-state checkpoints for generator programs.

    Every ``interval`` completed update cycles a processor spends
    ``cost`` charged no-op cycles writing its private state to
    persistent storage; a restarted processor then *replays* its
    logged read values up to the last committed checkpoint — a free,
    harness-level reconstruction of the checkpointed private state —
    instead of re-entering the program from the top.  ``interval=0``
    disables checkpointing (pure KS91 restart semantics).

    The policy wraps a ``pid -> generator`` program factory
    (:meth:`wrap`).  Correctness invariants:

    * the replay log holds only *completed* cycles' read values, in
      order — a failed cycle never reached the wrapper;
    * a checkpoint commits (``mark`` advances) only after all ``cost``
      no-op cycles completed, so a crash mid-checkpoint falls back to
      the previous checkpoint;
    * entries after ``mark`` are truncated on restart — ephemeral state
      since the last checkpoint is lost, exactly the PPM contract.

    Replayed cycles re-observe their *original* read values, not
    current memory — that is the point: they reconstruct the private
    state as checkpointed, without touching shared memory (writes are
    not re-applied during replay).

    The instance accumulates measurement counters across one execution:
    ``checkpoints`` committed, ``restarts`` that replayed, and
    ``cycles_replayed`` in total.
    """

    def __init__(self, interval: int, cost: int = 1) -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        self.interval = interval
        self.cost = cost
        self.checkpoints = 0
        self.restarts = 0
        self.cycles_replayed = 0

    def reset(self) -> None:
        self.checkpoints = 0
        self.restarts = 0
        self.cycles_replayed = 0

    def wrap(self, factory):
        """Wrap a program factory with checkpoint/replay semantics."""
        if self.interval == 0:
            return factory
        interval = self.interval
        cost = self.cost
        states: Dict[int, dict] = {}
        policy = self

        def wrapped(pid: int):
            state = states.get(pid)
            if state is None:
                state = states[pid] = {"log": [], "mark": 0, "spawned": False}

            def run():
                inner = factory(pid)
                log = state["log"]
                mark = state["mark"]
                del log[mark:]  # ephemeral state since the checkpoint
                try:
                    cycle = next(inner)
                    if state["spawned"] and mark:
                        policy.restarts += 1
                        policy.cycles_replayed += mark
                    state["spawned"] = True
                    for values in log:
                        cycle = inner.send(values)
                    since = 0
                    while True:
                        values = yield cycle
                        log.append(values)
                        since += 1
                        if since >= interval:
                            for _ in range(cost):
                                yield noop_cycle("ppm:checkpoint")
                            state["mark"] = len(log)
                            policy.checkpoints += 1
                            since = 0
                        cycle = inner.send(values)
                except StopIteration:
                    return

            return run()

        return wrapped


@dataclass
class PersistentResult:
    """Outcome of a persistent robust execution."""

    program: str
    width: int
    p: int
    generations: int
    ledger: RunLedger
    memory: List[int] = field(default_factory=list)
    solved: bool = False
    #: Generation g -> the tick whose writes raised its flag.
    phase_ticks: Dict[int, int] = field(default_factory=dict)

    @property
    def total_work(self) -> int:
        return self.ledger.completed_work

    @property
    def total_pattern_size(self) -> int:
        return self.ledger.pattern_size


class PersistentSimulator:
    """Runs a whole simulated program as one generational machine run."""

    def __init__(
        self,
        p: int,
        adversary: Optional[object] = None,
        policy: Optional[WritePolicy] = None,
        max_ticks: int = 5_000_000,
        checkpoint: Optional[CheckpointPolicy] = None,
    ) -> None:
        if p <= 0:
            raise ValueError(f"simulator needs p > 0, got {p}")
        self.p = p
        self.adversary = adversary
        self.policy = policy
        self.max_ticks = max_ticks
        self.checkpoint = checkpoint

    def execute(
        self, program: SimProgram, initial_memory: Optional[List[int]] = None
    ) -> PersistentResult:
        program.validate()
        simulated = program.initial_memory(initial_memory)

        width = program.width
        n_tasks = next_power_of_two(width)
        steps = list(program.writing_steps())
        if not steps:
            return PersistentResult(
                program=program.name, width=width, p=self.p,
                generations=0, ledger=RunLedger(),
                memory=simulated, solved=True,
            )

        # Address plan: the generational layout first, then staging and
        # the simulated memory.  The layout depends only on (n, p, number
        # of generations), so the phases are built against its bases.
        layout = plan_layout(n_tasks, self.p, 2 * len(steps))
        staging_base = layout.size
        sim_base = staging_base + width * max(slots for *_, slots in steps)
        total_size = sim_base + len(simulated)

        phase_tasks = [
            CycleFactoryTasks(
                slots, factory(program, index, slots, staging_base, sim_base)
            )
            for index, _step, slots in steps
            for factory in (_compute_task_factory, _commit_task_factory)
        ]

        algorithm = GenerationalX(phase_tasks)
        memory = SharedMemory(total_size)
        algorithm.initialize_memory(memory, layout)
        memory.load(simulated, sim_base)

        if self.adversary is not None and hasattr(self.adversary, "reset"):
            self.adversary.reset()
        machine = Machine(
            num_processors=self.p,
            memory=memory,
            policy=self.policy,
            adversary=self.adversary,
            context={
                "layout": layout,
                "algorithm": algorithm.name,
                "program": program.name,
            },
        )
        program_factory = algorithm.program(layout)
        if self.checkpoint is not None:
            self.checkpoint.reset()
            program_factory = self.checkpoint.wrap(program_factory)
        machine.load_program(program_factory)
        phase_ticks: Dict[int, int] = {}
        ledger = machine.run(
            until=done_flags_predicate(layout, machine.ledger, phase_ticks),
            max_ticks=self.max_ticks,
            raise_on_limit=False,
        )
        return PersistentResult(
            program=program.name,
            width=width,
            p=self.p,
            generations=layout.generations,
            ledger=ledger,
            memory=MemoryReader(memory).region(sim_base, len(simulated)),
            solved=ledger.goal_reached,
            phase_ticks=phase_ticks,
        )


@dataclass(frozen=True)
class PersistentCheckpointRunner:
    """A :attr:`SweepSpec.runner` measuring the PPM checkpoint axis.

    Each point runs a whole simulated program (prefix-sum of width N)
    through :class:`PersistentSimulator` under the point's adversary,
    with private state checkpointed every ``interval`` completed cycles
    at ``cost`` no-op cycles apiece (``interval=0``: pure KS91
    restarts).  The algorithm factory and lane the engine passes are
    ignored — the generational executor is fixed — and the result maps
    onto :class:`~repro.core.runner.RunMeasures` so sweeps, caching and
    reports treat it like any other point.
    """

    interval: int = 0
    cost: int = 1

    #: The fault model a sweep through this runner measures, whatever
    #: adversary drives it (a class attribute, not a field).
    model_tags = ("persistent-mem",)

    def __call__(self, algorithm_factory, n, p, adversary=None,
                 max_ticks=None, fairness_window=None, lane="fast"):
        from repro.core.runner import RunMeasures
        from repro.simulation.programs import prefix_sum_program

        simulator = PersistentSimulator(
            p,
            adversary=adversary,
            checkpoint=CheckpointPolicy(self.interval, self.cost),
            **({} if max_ticks is None else {"max_ticks": max_ticks}),
        )
        result = simulator.execute(prefix_sum_program(n), list(range(n)))
        ledger = result.ledger
        return RunMeasures(
            algorithm=f"ppm-ck{self.interval}",
            n=n, p=p,
            solved=result.solved,
            completed_work=ledger.completed_work,
            charged_work=ledger.charged_work,
            pattern_size=ledger.pattern_size,
            overhead_ratio=ledger.overhead_ratio(n),
            parallel_time=ledger.parallel_time,
        )
