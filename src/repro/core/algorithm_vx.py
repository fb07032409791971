"""Algorithm V+X — the interleaved combination of Theorem 4.9.

    "We first observe that the executions of algorithms V and X can be
    interleaved to yield an algorithm that achieves the following
    performance: ... S = O(min{N + P log^2 N + M log N, N * P^0.6}),
    overhead ratio sigma = O(log^2 N)."

Each processor alternates update cycles of X and V, each algorithm on
its own data structures but over the *shared* Write-All array ``x``
(both only ever write 1 into it, so COMMON CRCW is respected).  X
guarantees termination with sub-quadratic work under any failure
pattern; V contributes the ``N + P log^2 N + M log N`` bound when the
pattern is small — the interleaving pays at most a factor of two over
whichever finishes first.

Safety of the interleaving, as designed: all progress-tree operations
of both algorithms are monotone and idempotent, and V's step-counter
cohorts were meant to de-phase only by whole ticks (never writing
conflicting values in the same tick), so that the COMMON write
discipline holds throughout.  **That argument fails under churn.**
V's join rule (``phased_program``) assumes one V cycle per tick, but
the interleaving gives each processor a V cycle every second tick, on
a parity fixed by when it last restarted.  Two cohorts can then run at
once on opposite parities, and waiters joining from one cohort's step
value write a different step value than the other cohort in the same
tick: the machine raises ``WriteConflictError`` at V's ``step_addr``.
Under ``FailureBudgetAdversary(RandomAdversary(0.05, 0.4, seed), N)``
at N x P in {64x4, 64x8, 128x8, 256x16} and seeds 0-19, 43 of 80 runs
raise (V alone: none).  Every lane raises identically, so the
differential suite cannot see it; its ``TestVXChurnLaneAgreement``
pins that agreement, and the strict xfail
``test_vx_budgeted_churn_keeps_common_crcw`` in
``benchmarks/e2e/test_e2e.py`` pins the violation.  The small sizes
that the property tests, the fuzz driver and the Theorem 4.1
simulator draw miss it.

**Kernel twin.**  :meth:`AlgorithmVX.compiled_program` installs
:class:`VXKernel`, the compiled form of :func:`_interleave`: it
round-robins X's ``XKernel`` and V's ``PhasedKernel`` exactly as the
generator round-robins the two programs, and adds no per-cycle X or V
logic of its own.  It reproduces the generator bug for bug, the
conflict above included.  Task cycles (the Theorem 4.1 simulator's
phases) run on it too: each sub-kernel hands its task cycles to the
machine, and the turn passes on when the machine advances past one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.algorithm_v import AlgorithmV, VLayout
from repro.core.algorithm_x import AlgorithmX, XLayout
from repro.core.base import BaseLayout, WriteAllAlgorithm, default_tasks
from repro.core.iterative import phased_program
from repro.core.tasks import TaskSet
from repro.pram.compiled import TASK_CYCLE, CompiledProgram
from repro.pram.cycles import Cycle, Write


@dataclass(frozen=True)
class VXLayout(BaseLayout):
    """Composite layout: X's structures, then V's, over one ``x`` array."""

    x_layout: XLayout = None  # type: ignore[assignment]
    v_layout: VLayout = None  # type: ignore[assignment]

    # Conveniences for adversaries (the stalker reads w_base like on X).
    @property
    def d_base(self) -> int:
        return self.x_layout.d_base

    @property
    def w_base(self) -> int:
        return self.x_layout.w_base


class AlgorithmVX(WriteAllAlgorithm):
    """Cycle-by-cycle interleaving of algorithms X and V."""

    name = "V+X"

    def __init__(self) -> None:
        self._x = AlgorithmX()
        self._v = AlgorithmV()

    def build_layout(self, n: int, p: int) -> VXLayout:
        x_layout = self._x.build_layout(n, p)
        # Shift V's structures past X's; both share x at base 0.
        v_template = self._v.build_layout(n, p)
        offset = x_layout.size - n  # V's non-x cells start after X's
        v_layout = VLayout(
            n=n, p=p, x_base=0,
            size=v_template.size + offset,
            d_base=v_template.d_base + offset,
            leaves=v_template.leaves,
            chunk=v_template.chunk,
            step_addr=v_template.step_addr + offset,
            done_addr=v_template.done_addr + offset,
        )
        return VXLayout(
            n=n, p=p, x_base=0, size=v_layout.size,
            x_layout=x_layout, v_layout=v_layout,
        )

    def program(
        self, layout: VXLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)
        x_factory = self._x.program(layout.x_layout, tasks)

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            return _interleave(
                [x_factory(pid), phased_program(pid, layout.v_layout, tasks)]
            )

        return factory

    def compiled_program(
        self, layout: VXLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], "VXKernel"]]:
        x_factory = self._x.compiled_program(layout.x_layout, tasks)
        v_factory = self._v.compiled_program(layout.v_layout, tasks)

        def factory(pid: int) -> VXKernel:
            return VXKernel(x_factory(pid), v_factory(pid))

        return factory


class VXKernel(CompiledProgram):
    """Compiled form of :func:`_interleave` over X's and V's kernels.

    ``current`` is the sub-kernel whose cycle is pending and ``other``
    the one that runs next.  After each cycle the two swap if ``other``
    is still live; a sub-kernel that halted drops out, and the
    processor halts when both have.  ``reset`` resets both and starts
    on X, so a restart mid-round resumes on X's turn, as a fresh
    ``_interleave`` does.  ``current_cycle`` and ``observe`` delegate
    without moving.  When the current sub-kernel's ``quiet_step``
    returns :data:`TASK_CYCLE`, so does this one, keeping the turn: the
    machine interprets the task cycle and ``advance`` hands the turn on.
    """

    __slots__ = ("x", "v", "current", "other")

    def __init__(self, x: CompiledProgram, v: CompiledProgram) -> None:
        self.x = x
        self.v = v
        self.live = False

    def reset(self) -> bool:
        # Neither X's nor V's kernel halts at spawn, so a fresh round
        # always starts on X with both live.
        self.x.reset()
        self.v.reset()
        self.current = self.x
        self.other = self.v
        self.live = True
        return True

    def current_cycle(self) -> Cycle:
        return self.current.current_cycle()

    def observe(
        self, cells: Sequence[int]
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[Write, ...], int]]:
        return self.current.observe(cells)

    # advance and quiet_step hand the turn on inline: a shared helper
    # call measured quiet VX@none 2^13x64 about 7% slower.

    def advance(self, values: Tuple[int, ...]) -> bool:
        current = self.current
        current.advance(values)
        other = self.other
        if other.live:
            self.current = other
            self.other = current
        elif not current.live:
            self.live = False
        return self.live

    def quiet_step(self, cells: Sequence[int], out: List[int]) -> int:
        current = self.current
        reads = current.quiet_step(cells, out)
        if reads == TASK_CYCLE:
            return reads  # the machine interprets it, then advances
        other = self.other
        if other.live:
            self.current = other
            self.other = current
        elif not current.live:
            self.live = False
        return reads


def _interleave(
    generators: List[Generator[Cycle, tuple, None]],
) -> Generator[Cycle, tuple, None]:
    """Round-robin the update cycles of several sub-programs.

    A sub-program that returns drops out; the interleaving ends when all
    have returned.  (For V+X, X returns exactly when the whole problem is
    solved, so the machine's termination predicate fires no later.)
    """
    slots: List[List[object]] = []
    for generator in generators:
        try:
            first = next(generator)
        except StopIteration:
            slots.append([generator, None])
        else:
            slots.append([generator, first])
    while any(cycle is not None for _generator, cycle in slots):
        for slot in slots:
            generator, cycle = slot
            if cycle is None:
                continue
            values = yield cycle  # type: ignore[misc]
            try:
                slot[1] = generator.send(values)  # type: ignore[union-attr]
            except StopIteration:
                slot[1] = None
