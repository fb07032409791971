"""Generational algorithm X: iterated Write-All without resets.

The executor in :mod:`repro.simulation.executor` starts each Write-All
phase with fresh scratch structures (a documented substitution).  The
paper's own pipeline ([Shv 89], cited in Section 4.3) instead reuses the
structures across phases by *tagging* them with a generation number.
Generation g is algorithm X's own walk run with ``generation=g``
(:func:`repro.core.algorithm_x._x_program`), over X's layout followed by
``G + 1`` flags (:func:`plan_layout`), so one persistent machine
executes an arbitrary sequence of task sets:

* the array cell ``x[i]`` holds the last generation in which task ``i``
  completed (monotone increasing);
* the progress-heap cell ``d[v]`` holds the last generation for which
  the subtree below ``v`` finished (monotone increasing: generation g's
  walk only writes where every relevant value has reached g, and by the
  time generation g is globally complete every tree cell equals g);
* the position ``w[pid]`` is tagged (``g * position_mult + node``) so a
  restarted processor resumes within its generation but re-enters
  fresh for a new one;
* a flag array ``done[0..G]`` gates the generations: a processor starts
  generation g when ``done[g-1]`` is set and finishes its walk by
  setting ``done[g]``.

So a processor that resumes from shared memory alone only travels up
and exits in a generation whose flag is set, and writers of different
generations never collide in one tick.  A processor restored from a checkpoint
(:class:`repro.simulation.persistent.CheckpointPolicy`) breaks this: it
can resume inside a finished generation and replay its task cycles and
``x:mark`` against current memory (docs/SIMULATION.md).

Every cycle writes (gates rewrite the processor's own position cell),
preserving X's starvation immunity; crashes and restarts may now span
phase boundaries, which the tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Sequence

from repro.core.algorithm_x import AlgorithmX, XLayout, _x_program
from repro.core.tasks import TaskSet
from repro.pram.cycles import Cycle, Write
from repro.pram.ledger import RunLedger
from repro.pram.memory import MemoryReader, SharedMemory


@dataclass(frozen=True)
class GenXLayout(XLayout):
    """X's layout (``x`` | ``d`` heap | ``w`` positions), then the
    generation flags ``done[0..G]``."""

    flags_base: int = 0
    generations: int = 1

    def flag_address(self, generation: int) -> int:
        if not 0 <= generation <= self.generations:
            raise ValueError(
                f"generation {generation} out of range "
                f"[0, {self.generations}]"
            )
        return self.flags_base + generation


def plan_layout(n: int, p: int, generations: int) -> GenXLayout:
    """X's layout for (n, p), then ``generations + 1`` flags."""
    x = AlgorithmX().build_layout(n, p)
    return GenXLayout(
        n=n, p=p, x_base=x.x_base, size=x.size + generations + 1,
        d_base=x.d_base, w_base=x.w_base, flags_base=x.size,
        generations=generations,
    )


class GenerationalX:
    """Executes a sequence of task sets as tagged Write-All generations."""

    name = "X*gen"

    def __init__(self, phase_tasks: Sequence[TaskSet]) -> None:
        if not phase_tasks:
            raise ValueError("GenerationalX needs at least one phase")
        self.phase_tasks: List[TaskSet] = list(phase_tasks)

    @property
    def generations(self) -> int:
        return len(self.phase_tasks)

    def build_layout(self, n: int, p: int) -> GenXLayout:
        return plan_layout(n, p, self.generations)

    def initialize_memory(self, memory: SharedMemory, layout: GenXLayout) -> None:
        memory.poke(layout.flag_address(0), 1)  # generation 0 is vacuous

    def program(
        self, layout: GenXLayout
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        phase_tasks = self.phase_tasks

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            return _generational_program(pid, layout, phase_tasks)

        return factory


def done_flags_predicate(
    layout: GenXLayout, ledger: RunLedger, raised_at: Dict[int, int]
) -> Callable[[MemoryReader], bool]:
    """Machine ``until``: the final generation's flag is raised.

    It also stamps ``raised_at[g]`` (empty at the start) with
    ``ledger.ticks`` the first time it sees flag g raised.  The machine
    evaluates ``until`` once after every tick, so that is the tick whose
    writes raised the flag.  The flags form a monotone prefix (a
    processor raises ``done[g]`` only after it read ``done[g-1]``), so
    a call reads the first flag it has not seen raised, and the next
    one only if that one is up.
    """
    flags_base = layout.flags_base
    final = layout.generations

    def all_generations_done(memory: MemoryReader) -> bool:
        generation = len(raised_at) + 1
        while generation <= final and memory.read(flags_base + generation):
            raised_at[generation] = ledger.ticks
            generation += 1
        return generation > final

    return all_generations_done


def _generational_program(
    pid: int, layout: GenXLayout, phase_tasks: Sequence[TaskSet]
) -> Generator[Cycle, tuple, None]:
    w_address = layout.w_base + pid
    total_generations = len(phase_tasks)

    def gate_cycle(flag_index: int) -> Cycle:
        """Probe one flag; rewrite our own position so the cycle writes
        (no free read-only completions — X's starvation immunity)."""
        return Cycle(
            reads=(layout.flag_address(flag_index), w_address),
            writes=lambda v: (Write(w_address, v[1]),),
            label="gx:gate",
        )

    generation = 1
    while generation <= total_generations:
        # --- locate the first unfinished generation ------------------- #
        # The flags are a monotone prefix (done[g] is only ever set
        # after done[g-1]), so a restarted processor finds its place by
        # galloping + binary search in O(log G) gate cycles instead of
        # the O(G) linear crawl (which made every restart pay the whole
        # program length on long pipelines).
        low = generation  # invariant: done[low - 1] is set
        stride = 1
        high = None
        while high is None:
            probe = min(low + stride - 1, total_generations)
            values = yield gate_cycle(probe)
            if values[0]:
                if probe == total_generations:
                    return  # everything already finished
                low = probe + 1
                stride *= 2
            else:
                high = probe  # first unset flag lies in [low, high]
        while low < high:
            mid = (low + high) // 2
            values = yield gate_cycle(mid)
            if values[0]:
                low = mid + 1
            else:
                high = mid
        generation = low
        # --- X's walk, tagged with this generation -------------------- #
        yield from _x_program(
            pid, layout, phase_tasks[generation - 1], generation=generation
        )
        # The walk returns once the root is done for this generation.
        yield Cycle(
            writes=(Write(layout.flag_address(generation), 1),),
            label="gx:flag",
        )
        generation += 1
