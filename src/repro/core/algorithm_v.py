"""Algorithm V — the restart-capable modification of W (Section 4.1).

V drops W's processor-enumeration phase (which restarts render
"inefficient and possibly incorrect, since no accurate estimates of
active processors can be obtained") and instead allocates processors by
their *permanent PID* in a top-down divide-and-conquer descent of the
progress tree, realizing the Theorem 3.2 balanced assignment in
O(log N) time.  Completed work:

* without restarts (Lemma 4.2):  ``S = O(N + P log^2 N)``;
* with restarts (Theorem 4.3):   ``S = O(N + P log^2 N + M log N)``.

V may fail to terminate when the adversary never lets any processor
finish an iteration (which is why Theorem 4.9 interleaves it with X);
``terminates_under_restarts`` is False accordingly.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.core.base import WriteAllAlgorithm, default_tasks
from repro.core.iterative import (
    IterativeLayout,
    PhasedKernel,
    iteration_length,
    phased_program,
)
from repro.core.tasks import TaskSet
from repro.pram.cycles import Cycle
from repro.util.bits import ceil_log2, is_power_of_two, next_power_of_two


class VLayout(IterativeLayout):
    pass


def progress_geometry(n: int) -> tuple:
    """Split n elements into (leaves, chunk): ~N/log N leaves of ~log N.

    Both factors are powers of two so the heap arithmetic stays exact.
    """
    if not is_power_of_two(n):
        raise ValueError(f"need power-of-two n, got {n}")
    chunk = min(n, next_power_of_two(max(1, ceil_log2(max(2, n)))))
    leaves = n // chunk
    return leaves, chunk


class AlgorithmV(WriteAllAlgorithm):
    """Three synchronized phases per iteration; PID-driven allocation.

    ``chunk`` overrides the elements-per-leaf factor (default ~log N,
    the paper's choice).  It must be a power of two dividing N; the
    ablation benchmark sweeps it to show why log N balances the
    allocation overhead against leaf granularity.
    """

    name = "V"
    terminates_under_restarts = False

    def __init__(self, chunk: Optional[int] = None) -> None:
        self.chunk_override = chunk
        if chunk is not None:
            self.name = f"V[chunk={chunk}]"

    def build_layout(self, n: int, p: int) -> VLayout:
        leaves, chunk = progress_geometry(n)
        if self.chunk_override is not None:
            chunk = self.chunk_override
            if not is_power_of_two(chunk) or chunk > n or n % chunk:
                raise ValueError(
                    f"chunk must be a power of two dividing n, got {chunk}"
                )
            leaves = n // chunk
        x_base = 0
        d_base = n
        step_addr = d_base + (2 * leaves - 1)
        done_addr = step_addr + 1
        size = done_addr + 1
        return VLayout(
            n=n, p=p, x_base=x_base, size=size,
            d_base=d_base, leaves=leaves, chunk=chunk,
            step_addr=step_addr, done_addr=done_addr,
        )

    def program(
        self, layout: VLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            return phased_program(pid, layout, tasks)

        return factory

    def compiled_program(
        self, layout: VLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], PhasedKernel]]:
        tasks = default_tasks(tasks)
        lam = iteration_length(layout, tasks)
        task_set = tasks if tasks.cycles_per_task != 0 else None

        def factory(pid: int) -> PhasedKernel:
            return PhasedKernel(pid, layout, lam, task_set)

        return factory
