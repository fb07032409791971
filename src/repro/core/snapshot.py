"""The unit-cost-snapshot algorithm of Theorem 3.2.

    "We complement the previous lower bound with the following oblivious
    strategy: at each step that a processor PID is active, it reads the
    N elements of the array x[1..N] to be visited.  Say U of these
    elements are still not visited.  The processor numbers these U
    elements from 1 to U based on their position in the array, and
    assigns itself to the ith unvisited element such that
    i = ceil(PID * U / N).  This achieves load balancing."

Under the (unrealistically strong) assumption that a processor can read
and locally process the entire shared memory at unit cost, this
algorithm's completed work is ``Theta(N log N)`` with ``N`` processors —
matching the Theorem 3.1 lower bound, which is what makes that bound the
tightest possible under the assumption.  The machine must be created
with ``allow_snapshot=True`` (the runner does this automatically).

Every processor of a tick reads the same pre-tick memory, and the fast
lanes hand all of them one tuple (the machine builds one snapshot per
tick).  The program therefore computes the unvisited list once per
snapshot *object*: an identity memo holds the last tuple and its list,
and every processor's write closure and termination test consult it.
The memo is exact because a tuple never changes and the memo keeps a
reference to it, so a match by identity is a match by contents.  A new
tuple (the next tick, or each processor on the reference lane, which
copies memory per processor) misses and recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.base import BaseLayout, WriteAllAlgorithm
from repro.core.tasks import TaskSet
from repro.pram.cycles import Cycle, Write, snapshot_cycle
from repro.util.bits import is_power_of_two


@dataclass(frozen=True)
class SnapshotLayout(BaseLayout):
    pass


class SnapshotAlgorithm(WriteAllAlgorithm):
    """Oblivious balanced reassignment over full-memory snapshots."""

    name = "snapshot"
    requires_snapshot = True

    def build_layout(self, n: int, p: int) -> SnapshotLayout:
        if not is_power_of_two(n):
            raise ValueError(f"snapshot algorithm needs power-of-two n, got {n}")
        return SnapshotLayout(n=n, p=p, x_base=0, size=n)

    def program(
        self, layout: SnapshotLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        if tasks is not None and tasks.cycles_per_task != 0:
            raise ValueError(
                "the snapshot algorithm models Theorem 3.2's abstract "
                "setting and supports only the trivial task set"
            )
        n = layout.n
        p = layout.p
        x_base = layout.x_base
        # The identity memo (see the module docstring): the last snapshot
        # tuple seen and its unvisited elements.
        memo_values: Optional[Tuple[int, ...]] = None
        memo_unvisited: List[int] = []

        def unvisited(memory_values: Tuple[int, ...]) -> List[int]:
            nonlocal memo_values, memo_unvisited
            if memory_values is not memo_values:
                memo_unvisited = [
                    index
                    for index in range(n)
                    if memory_values[x_base + index] == 0
                ]
                memo_values = memory_values
            return memo_unvisited

        def compute(pid: int) -> Callable[[Tuple[int, ...]], Sequence[Write]]:
            def writes(memory_values: Tuple[int, ...]) -> Sequence[Write]:
                remaining = unvisited(memory_values)
                if not remaining:
                    return ()
                # Balanced oblivious assignment: processor PID takes the
                # floor(PID * U / P)-th unvisited element.
                slot = (pid * len(remaining)) // p
                return (Write(x_base + remaining[slot], 1),)

            return writes

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            def run() -> Generator[Cycle, tuple, None]:
                writes = compute(pid)
                while True:
                    memory_values = yield snapshot_cycle(
                        writes, label="snapshot:assign"
                    )
                    if not unvisited(memory_values):
                        return

            return run()

        return factory
