"""The harness that runs a Write-All algorithm on the simulated PRAM."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.base import BaseLayout, WriteAllAlgorithm
from repro.core.problem import WriteAllInstance, verify_solution
from repro.core.tasks import TaskSet
from repro.faults.static import apply_memory_faults
from repro.pram.compiled import resolve_kernel
from repro.pram.lanes import LANES
from repro.pram.vectorized import resolve_vectorized
from repro.pram.ledger import RunLedger
from repro.pram.machine import Machine
from repro.pram.memory import MemoryReader, SharedMemory
from repro.pram.policies import WritePolicy


@dataclass
class WriteAllResult:
    """Outcome of one Write-All run."""

    algorithm: str
    n: int
    p: int
    ledger: RunLedger
    layout: BaseLayout
    memory: SharedMemory
    solved: bool

    @property
    def completed_work(self) -> int:
        """S — the paper's completed-work measure."""
        return self.ledger.completed_work

    @property
    def charged_work(self) -> int:
        """S' — completed plus interrupted cycles."""
        return self.ledger.charged_work

    @property
    def pattern_size(self) -> int:
        """|F| — failures plus restarts."""
        return self.ledger.pattern_size

    @property
    def overhead_ratio(self) -> float:
        """sigma = S / (N + |F|)."""
        return self.ledger.overhead_ratio(self.n)

    @property
    def parallel_time(self) -> int:
        return self.ledger.parallel_time

    def summary(self) -> str:
        return (
            f"{self.algorithm}(N={self.n}, P={self.p}): "
            f"{self.ledger.describe(self.n)}"
        )


def solve_write_all(
    algorithm: WriteAllAlgorithm,
    n: int,
    p: int,
    adversary: Optional[object] = None,
    tasks: Optional[TaskSet] = None,
    policy: Optional[WritePolicy] = None,
    max_ticks: Optional[int] = None,
    enforce_progress: bool = True,
    fairness_window: Optional[int] = None,
    raise_on_limit: bool = False,
    fast_path: bool = True,
    fast_forward: bool = True,
    phase_counters: Optional[object] = None,
    compiled: bool = True,
    vectorized: "Union[bool, str]" = False,
) -> WriteAllResult:
    """Run ``algorithm`` on an (n, p) instance under ``adversary``.

    The algorithm's layout is placed in the machine context under
    ``"layout"`` so omniscient adversaries (halving, stalking) can locate
    the Write-All array and auxiliary structures.  The run ends when all
    of ``x`` is written, when every processor halts, or at ``max_ticks``
    (recorded in the ledger; ``raise_on_limit=True`` raises instead).

    ``fast_path=False`` selects the machine's reference tick
    implementation (the executable specification — slower, used by the
    differential suite and perf comparisons); ``fast_forward=False``
    keeps the fast path but disables event-horizon tick batching (the
    ``noff`` lane); ``phase_counters`` is an
    optional per-phase timing accumulator for the perf harness.
    ``compiled=False`` (the ``nokernel`` lane) forces the
    generator protocol even for algorithms that ship a trusted
    :meth:`~repro.core.base.WriteAllAlgorithm.compiled_program`.
    ``vectorized=True`` opts in to the numpy batch lane
    (:mod:`repro.pram.vectorized`) for algorithms that ship a trusted
    ``vectorized_program``; it raises
    :class:`~repro.pram.vectorized.VectorizedUnavailable` when the
    optional numpy extra is missing.  ``vectorized="auto"`` (the
    ``--lane auto`` mode) instead lets the calibrated cost model in
    :mod:`repro.pram.dispatch` pick vec vs scalar per fused quiet
    window, and silently degrades to the scalar compiled lane when
    numpy is absent — results are bit-identical either way.
    """
    WriteAllInstance(n, p)  # validates the instance shape
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    algorithm.initialize_memory(memory, layout)
    if adversary is not None and hasattr(adversary, "reset"):
        adversary.reset()
    # Static-memory-fault adversaries (CGP model) carry a plan of dead
    # cells; pin them before the first tick so every lane sees them.
    apply_memory_faults(memory, adversary, layout)
    machine = Machine(
        num_processors=p,
        memory=memory,
        policy=policy,
        adversary=adversary,
        allow_snapshot=algorithm.requires_snapshot,
        enforce_progress=enforce_progress,
        fairness_window=fairness_window,
        context={"layout": layout, "algorithm": algorithm.name},
        fast_path=fast_path,
        fast_forward=fast_forward,
        phase_counters=phase_counters,
    )
    machine.load_program(
        algorithm.program(layout, tasks),
        compiled_program=resolve_kernel(algorithm, layout, tasks, compiled),
        vectorized_program=resolve_vectorized(
            algorithm, layout, tasks, vectorized
        ),
        vector_dispatch="auto" if vectorized == "auto" else "always",
    )
    if max_ticks is None:
        max_ticks = default_tick_budget(n, p)
    ledger = machine.run(
        until=algorithm.until_predicate(layout),
        max_ticks=max_ticks,
        raise_on_limit=raise_on_limit,
    )
    solved = verify_solution(
        MemoryReader(memory), layout.x_base, n,
        skip=memory.faulty_addresses(),
    )
    return WriteAllResult(
        algorithm=algorithm.name,
        n=n,
        p=p,
        ledger=ledger,
        layout=layout,
        memory=memory,
        solved=solved,
    )


@dataclass(frozen=True)
class RunMeasures:
    """The paper's measures of one run, detached from the machine.

    :class:`WriteAllResult` drags the whole ledger and shared memory
    along, which is what interactive callers want but is needlessly
    heavy (and irrelevant) to ship between processes.  This is the
    picklable value that sweep workers return.
    """

    algorithm: str
    n: int
    p: int
    solved: bool
    completed_work: int
    charged_work: int
    pattern_size: int
    overhead_ratio: float
    parallel_time: int


def measure_write_all(
    algorithm_factory,
    n: int,
    p: int,
    adversary: Optional[object] = None,
    max_ticks: Optional[int] = None,
    fairness_window: Optional[int] = None,
    lane: str = "fast",
) -> RunMeasures:
    """Picklable sweep entry point: run one instance, return measures.

    ``algorithm_factory`` is a zero-argument callable (the algorithm
    class, or a ``functools.partial`` of it) so that a fresh instance is
    built *inside* the worker process — algorithms hold incidental state
    and must never be shared across runs.  ``lane`` names the machine
    lane in :data:`repro.pram.lanes.LANES`.
    """
    result = solve_write_all(
        algorithm_factory(), n, p,
        adversary=adversary,
        max_ticks=max_ticks,
        fairness_window=fairness_window,
        **LANES[lane].solver_kwargs(),
    )
    return RunMeasures(
        algorithm=result.algorithm,
        n=n,
        p=p,
        solved=result.solved,
        completed_work=result.completed_work,
        charged_work=result.charged_work,
        pattern_size=result.pattern_size,
        overhead_ratio=result.overhead_ratio,
        parallel_time=result.parallel_time,
    )


def default_tick_budget(n: int, p: int) -> int:
    """A generous default tick limit.

    Worst-case runs (stalking adversaries) take far more ticks than
    failure-free ones; the default scales super-linearly in N so honest
    runs never trip it, while still bounding runaway configurations.
    Benchmarks that exercise adversarial worst cases pass an explicit
    budget.
    """
    return 20_000 + 64 * n * max(1, n // max(1, p))
