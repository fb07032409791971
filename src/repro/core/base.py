"""Base classes for Write-All algorithms.

Every algorithm in this package describes:

* a *layout* — where its shared data structures live in memory (the
  Write-All array ``x`` always occupies ``[x_base, x_base + n)``); the
  layout is also handed to adversaries via the machine context, which is
  how the paper's omniscient adversaries find the progress tree and the
  processor position array;
* a *program* — the per-processor generator of update cycles, written in
  recovery style (the [SS 83] action/recovery construct of Remark 6):
  the program's first cycles read shared checkpoints to decide where to
  resume, because a restarted processor re-enters at its initial state
  knowing only its PID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.core.tasks import TaskSet, TrivialTasks
from repro.pram.cycles import Cycle
from repro.pram.memory import MemoryReader, SharedMemory


@dataclass(frozen=True)
class BaseLayout:
    """Common fields of every Write-All layout."""

    n: int
    p: int
    x_base: int
    size: int


class WriteAllAlgorithm:
    """A Write-All solution parameterized by a :class:`TaskSet`."""

    #: Short name used in tables and benchmark output.
    name = "abstract"
    #: Whether the algorithm needs unit-cost memory snapshots (Thm 3.2).
    requires_snapshot = False
    #: Whether the algorithm tolerates processor failures at all.
    fault_tolerant = True
    #: Whether the algorithm guarantees termination under arbitrary
    #: failure/restart patterns (V does not — Section 4.1).
    terminates_under_restarts = True

    def build_layout(self, n: int, p: int) -> BaseLayout:
        """Plan the shared-memory layout for an (n, p) instance."""
        raise NotImplementedError

    def initialize_memory(self, memory: SharedMemory, layout: BaseLayout) -> None:
        """Set up non-zero initial shared state (most algorithms: none).

        The model clears shared memory to zeroes; anything else written
        here must be justified as part of the input encoding.
        """

    def program(
        self, layout: BaseLayout, tasks: TaskSet
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        """Return the per-processor program factory."""
        raise NotImplementedError

    def compiled_program(
        self, layout: BaseLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], object]]:
        """Optional compiled kernel factory for this configuration.

        Returns a ``pid -> CompiledProgram`` factory (see
        :mod:`repro.pram.compiled`) that is observationally identical
        to :meth:`program`, or ``None`` when no kernel applies (the
        default — e.g. non-trivial task sets).  Like the adversary's
        ``passive``/``quiet_until`` promises, the hook is only honored
        when it is declared by the class that defines the effective
        ``program()`` (``repro.pram.compiled.trusted_compiled_program``
        enforces this), so a subclass overriding ``program()`` cannot
        accidentally inherit a stale kernel.
        """
        return None

    def vectorized_program(
        self, layout: BaseLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[object]:
        """Optional whole-machine vector program for this configuration.

        Returns a :class:`repro.pram.vectorized.VectorProgram` that is
        observationally identical to :meth:`program`, or ``None`` when
        the configuration cannot be vectorized (the default).  Trusted
        under the same MRO guard as :meth:`compiled_program`
        (``repro.pram.vectorized.trusted_vectorized_program``), and
        only consulted when the run opted in with ``--lane vec``.
        """
        return None

    def is_done(self, memory: MemoryReader, layout: BaseLayout) -> bool:
        """Whether the Write-All array is fully visited (uncharged check)."""
        x_base = layout.x_base
        return all(memory.read(x_base + index) != 0 for index in range(layout.n))

    def until_predicate(
        self, layout: BaseLayout
    ) -> Callable[[MemoryReader], bool]:
        """The machine's termination predicate for this algorithm.

        The default is :func:`done_predicate` over the Write-All array.
        Algorithms whose completion certificate lives elsewhere — e.g.
        :class:`repro.core.fault_routing.FaultRouting`, whose ``x`` cells
        may be permanently dead under static memory faults — override
        this to watch their own certificate region.
        """
        return done_predicate(layout)


def done_predicate(
    layout: BaseLayout,
    region: Optional[tuple] = None,
) -> Callable[[MemoryReader], bool]:
    """An ``until`` predicate for the machine: all of x is written.

    ``region=(base, count)`` watches an arbitrary memory region instead
    of the Write-All array — used by algorithms whose completion
    certificate lives outside ``x``.

    The predicate registers a zero-region tracker over ``x`` with the
    memory layer on its first call; every write path maintains the
    tracker, so the per-tick termination check is O(1) instead of an
    O(N) rescan.  Memory views without trackers fall back to the scan.
    """
    x_base, n = region if region is not None else (layout.x_base, layout.n)
    state = {"tracker": None}

    def all_written(memory: MemoryReader) -> bool:
        tracker = state["tracker"]
        if tracker is not None:
            return tracker.zeros == 0
        track = getattr(memory, "track_zeros", None)
        if track is not None:
            tracker = track(x_base, n)
            state["tracker"] = tracker
            return tracker.zeros == 0
        for index in range(n):
            if memory.read(x_base + index) == 0:
                return False
        return True

    # Machine-readable shape of the goal: "the region [x_base, x_base +
    # n) has no zeros".  The vectorized lane batches whole quiet windows
    # and uses this to evaluate the predicate inside the batch
    # (computing the exact first tick it flips) instead of breaking the
    # window every tick.
    all_written.zero_goal = (x_base, n)

    return all_written


def default_tasks(tasks: Optional[TaskSet]) -> TaskSet:
    return tasks if tasks is not None else TrivialTasks()
