"""The unified benchmark scenario registry and driver.

Every grid-shaped experiment under ``benchmarks/bench_*.py`` is
registered here as a :class:`BenchScenario` — a bundle of picklable
:class:`~repro.experiments.spec.SweepSpec` s that the parallel engine
can execute, cache and time.  The bench scripts import their scenario
back from this registry for their grid constants, so the pytest
benchmarks and the driver cannot drift apart; the driver
(``benchmarks/driver.py`` / ``python -m repro bench``) runs scenarios
through :func:`repro.experiments.parallel.run_sweep_parallel` and emits
a ``BENCH_<tag>.json`` report (see :mod:`repro.metrics.report`) plus
the usual text tables.

A few benchmarks are *not* grid sweeps and stay bespoke; they are
listed in :data:`EXCLUDED` with the reason.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    FaultRouting,
    SnapshotAlgorithm,
    TrivialAssignment,
)
from repro.experiments.factories import (
    Budgeted,
    Burst,
    CrashOnly,
    FailureFree,
    Halving,
    NoRestart,
    PersistentCheckpointRunner,
    RandomChurn,
    SparseSchedule,
    SpeedClasses,
    Stalker,
    Starver,
    StaticFaults,
    Thrashing,
)
from repro.experiments.parallel import ParallelSweepResult, run_sweep_parallel
from repro.experiments.spec import SweepSpec
from repro.metrics.report import bench_report, scenario_section


@dataclass(frozen=True)
class BenchScenario:
    """One benchmark experiment as engine-runnable sweeps."""

    tag: str            # e.g. "E2_thm31_lower_bound"
    title: str          # the claim, one line
    source: str         # the bench_*.py that owns the assertions
    specs: Tuple[SweepSpec, ...]
    heavy: bool = False  # excluded from the driver's default set
    #: Registry adversary names (repro.faults.registry) the scenario
    #: exercises; recorded in the report so the regression checker can
    #: verify the baseline's fault models still exist
    #: (``model-tag-missing``).  Empty for pre-registry scenarios.
    adversaries: Tuple[str, ...] = ()

    def total_points(self) -> int:
        return sum(len(list(spec.points())) for spec in self.specs)


def _slack_processors(n: int) -> int:
    """P = N / log^2 N — Lemma 4.2's work-optimality window."""
    return max(1, n // int(math.log2(n)) ** 2)


def _sigma_regimes(n: int) -> List[Tuple[str, int]]:
    """Corollary 4.10/4.11 failure-budget regimes at size ``n``."""
    log_n = math.log2(n)
    return [
        ("F<=P", int(n)),
        ("F~NlogN", int(4 * n * log_n)),
        ("F~N^1.6", int(n ** 1.6) * 4),
    ]


def _build_scenarios() -> Dict[str, BenchScenario]:
    scenarios: List[BenchScenario] = []

    scenarios.append(BenchScenario(
        tag="E1_thrashing",
        title="Example 2.2 — thrashing separates S from S'",
        source="bench_example_2_2_thrashing.py",
        specs=(SweepSpec(
            name="X/thrashing", algorithm=AlgorithmX,
            sizes=(32, 64, 128, 256), adversary=Thrashing(),
            seeds=(0,), max_ticks=1_000_000,
        ),),
    ))

    scenarios.append(BenchScenario(
        tag="E2_thm31_lower_bound",
        title="Theorem 3.1 — halving forces Omega(N log N) from everyone",
        source="bench_theorem_3_1_lower_bound.py",
        specs=tuple(
            SweepSpec(
                name=f"{label}/halving", algorithm=algorithm,
                sizes=(16, 32, 64, 128, 256), adversary=Halving(),
                seeds=(0,), max_ticks=2_000_000,
            )
            for label, algorithm in [
                ("snapshot", SnapshotAlgorithm),
                ("X", AlgorithmX),
                ("VX", AlgorithmVX),
            ]
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E3_thm32_snapshot",
        title="Theorem 3.2 — snapshot algorithm is Theta(N log N)",
        source="bench_theorem_3_2_snapshot.py",
        specs=(
            SweepSpec(
                name="snapshot/halving", algorithm=SnapshotAlgorithm,
                sizes=(16, 32, 64, 128, 256, 512), adversary=Halving(),
                seeds=(0,), max_ticks=2_000_000,
            ),
            SweepSpec(
                name="snapshot/free", algorithm=SnapshotAlgorithm,
                sizes=(16, 32, 64, 128, 256, 512), adversary=FailureFree(),
                seeds=(0,),
            ),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E4_lemma42_v_failstop",
        title="Lemma 4.2 — V crash-only: S = O(N + P log^2 N)",
        source="bench_lemma_4_2_v_failstop.py",
        specs=(
            SweepSpec(
                name="V/crash-dense", algorithm=AlgorithmV,
                sizes=(64, 128, 256, 512), adversary=CrashOnly(0.02),
                seeds=(1,), max_ticks=2_000_000,
            ),
            SweepSpec(
                name="V/crash-slack", algorithm=AlgorithmV,
                sizes=(64, 128, 256, 512), processors=_slack_processors,
                adversary=CrashOnly(0.02), seeds=(2,),
                max_ticks=2_000_000,
            ),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E5_thm43_v_restarts",
        title="Theorem 4.3 — V with restarts: marginal work O(log N)/event",
        source="bench_theorem_4_3_v_restarts.py",
        specs=tuple(
            SweepSpec(
                name=f"V/budget-{budget}", algorithm=AlgorithmV,
                sizes=(256,),
                adversary=Budgeted(RandomChurn(0.25, 0.4), budget),
                seeds=(3,), max_ticks=4_000_000,
            )
            for budget in (0, 64, 256, 1024, 4096)
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E6_lemma44_x_termination",
        title="Lemma 4.4 — X terminates in every environment",
        source="bench_lemma_4_4_x_termination.py",
        specs=(
            SweepSpec(name="X/no-failures", algorithm=AlgorithmX,
                      sizes=(128,), adversary=FailureFree(), seeds=(0,),
                      max_ticks=2_000_000),
            SweepSpec(name="X/random-10", algorithm=AlgorithmX,
                      sizes=(128,), adversary=RandomChurn(0.1, 0.3),
                      seeds=(1,), max_ticks=2_000_000),
            SweepSpec(name="X/random-30", algorithm=AlgorithmX,
                      sizes=(128,), adversary=RandomChurn(0.3, 0.5),
                      seeds=(2,), max_ticks=2_000_000),
            SweepSpec(name="X/bursts", algorithm=AlgorithmX,
                      sizes=(128,), adversary=Burst(2, 0.7, 1),
                      seeds=(0,), max_ticks=2_000_000),
            SweepSpec(name="X/thrashing", algorithm=AlgorithmX,
                      sizes=(128,), adversary=Thrashing(), seeds=(0,),
                      max_ticks=2_000_000),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E7_thm48_x_stalking",
        title="Theorem 4.8 — stalked X hits ~N^{log2 3}",
        source="bench_theorem_4_8_x_stalking.py",
        heavy=True,
        specs=(SweepSpec(
            name="X/stalker", algorithm=AlgorithmX,
            sizes=(16, 32, 64, 128, 256), adversary=Stalker(),
            seeds=(0,), max_ticks=20_000_000,
        ),),
    ))

    scenarios.append(BenchScenario(
        tag="E8_thm47_x_sublinear",
        title="Theorem 4.7 — X with P <= N: S = O(N * P^0.59)",
        source="bench_theorem_4_7_x_sublinear.py",
        heavy=True,
        specs=tuple(
            SweepSpec(
                name=f"X/stalker-p{p}", algorithm=AlgorithmX,
                sizes=(256,), processors=p, adversary=Stalker(),
                seeds=(0,), max_ticks=20_000_000,
            )
            for p in (1, 4, 16, 64, 256)
        ),
    ))

    regime_factories = [
        ("crash2", CrashOnly(0.02), 4),
        ("restarts10", RandomChurn(0.1, 0.3), 5),
        ("thrashing", Thrashing(), 0),
    ]
    scenarios.append(BenchScenario(
        tag="E9_thm49_combined",
        title="Theorem 4.9 — interleaved V+X takes the min of both worlds",
        source="bench_theorem_4_9_combined.py",
        specs=tuple(
            SweepSpec(
                name=f"{label}/{regime}", algorithm=algorithm,
                sizes=(128,), adversary=factory, seeds=(seed,),
                max_ticks=2_000_000,
            )
            for regime, factory, seed in regime_factories
            for label, algorithm in [
                ("V", AlgorithmV), ("X", AlgorithmX), ("VX", AlgorithmVX),
            ]
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E10_corollaries_sigma",
        title="Corollaries 4.10/4.11 — sigma improves with |F|",
        source="bench_corollaries_sigma.py",
        specs=tuple(
            SweepSpec(
                name=f"VX/{label}", algorithm=AlgorithmVX,
                sizes=(128,), adversary=Budgeted(Thrashing(), budget),
                seeds=(0,), max_ticks=4_000_000,
            )
            for label, budget in _sigma_regimes(128)
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E14_lemma45_oversubscription",
        title="Lemma 4.5 — oversubscribed X: S_{N,P} <= ceil(P/N)*S_{N,N}",
        source="bench_lemma_4_5_oversubscription.py",
        specs=tuple(
            SweepSpec(
                name=f"X/{label}-x{multiple}", algorithm=AlgorithmX,
                sizes=(64,), processors=64 * multiple, adversary=factory,
                seeds=(0,), max_ticks=2_000_000,
            )
            for multiple in (1, 2, 4, 8)
            for label, factory in [
                ("burst", Burst(2, 0.8, 1)), ("free", FailureFree()),
            ]
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A1_x_routing",
        title="Ablation — X's PID-bit routing vs degenerate rules",
        source="bench_ablation_x_routing.py",
        heavy=True,
        specs=tuple(
            SweepSpec(
                name=f"X/routing-{routing}",
                algorithm=functools.partial(AlgorithmX, routing=routing),
                sizes=(256,), adversary=Burst(2, 0.9, 1), seeds=(0,),
                max_ticks=4_000_000,
            )
            for routing in ("pid", "random", "left", "right")
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A2_v_chunk",
        title="Ablation — V's elements-per-leaf sweet spot is ~log N",
        source="bench_ablation_v_chunk.py",
        specs=tuple(
            SweepSpec(
                name=f"V/chunk-{chunk}",
                algorithm=functools.partial(AlgorithmV, chunk=chunk),
                sizes=(256,), processors=64, adversary=CrashOnly(0.02),
                seeds=(5,), max_ticks=4_000_000,
            )
            for chunk in (1, 8, 16, 64, 256)
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A3_fairness",
        title="Ablation — fairness window trades vetoes for time",
        source="bench_ablation_fairness.py",
        specs=tuple(
            SweepSpec(
                name=f"VX/window-{'off' if window is None else window}",
                algorithm=AlgorithmVX, sizes=(64,), adversary=Starver(),
                seeds=(0,), max_ticks=2_000_000, fairness_window=window,
            )
            for window in (None, 16, 4, 1)
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A4_x_failstop_conjecture",
        title="Open problem — X under fail-stop: ~N log N log log N?",
        source="bench_open_problem_x_failstop.py",
        heavy=True,
        specs=(
            SweepSpec(
                name="X/norestart-halving", algorithm=AlgorithmX,
                sizes=(32, 64, 128, 256, 512),
                adversary=NoRestart(Halving()), seeds=(0,),
                max_ticks=20_000_000,
            ),
            SweepSpec(
                name="X/norestart-stalker", algorithm=AlgorithmX,
                sizes=(32, 64, 128, 256, 512),
                adversary=NoRestart(Stalker()), seeds=(0,),
                max_ticks=20_000_000,
            ),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A6_w_vs_v",
        title="Section 4.1 — V beats W under restart churn",
        source="bench_w_vs_v_restarts.py",
        specs=(
            SweepSpec(name="V/free", algorithm=AlgorithmV,
                      sizes=(64, 128, 256), adversary=FailureFree(),
                      seeds=(0,)),
            SweepSpec(name="W/free", algorithm=AlgorithmW,
                      sizes=(64, 128, 256), adversary=FailureFree(),
                      seeds=(0,)),
            SweepSpec(name="V/churn", algorithm=AlgorithmV,
                      sizes=(64, 128, 256), adversary=RandomChurn(0.08, 0.3),
                      seeds=(12,), max_ticks=4_000_000),
            SweepSpec(name="W/churn", algorithm=AlgorithmW,
                      sizes=(64, 128, 256), adversary=RandomChurn(0.08, 0.3),
                      seeds=(12,), max_ticks=4_000_000),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A7_horizon_sparse",
        title="Event-horizon batching — sparse offline faults, model "
              "invariant with fast-forward on/off",
        source="bench_event_horizon_sparse.py",
        specs=(
            SweepSpec(
                name="X/sched-sparse/ff", algorithm=AlgorithmX,
                sizes=(256, 1024, 4096), processors=64,
                adversary=SparseSchedule(), seeds=(0, 1),
                max_ticks=2_000_000,
            ),
            SweepSpec(
                name="X/sched-sparse/noff", algorithm=AlgorithmX,
                sizes=(256, 1024, 4096), processors=64,
                adversary=SparseSchedule(), seeds=(0, 1),
                max_ticks=2_000_000, lane="noff",
            ),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A8_adaptive_smallsize",
        title="Adaptive dispatch — small sizes where forced vec lost; "
              "auto must match scalar's model exactly",
        source="bench_adaptive_smallsize.py",
        specs=tuple(
            SweepSpec(
                name=f"{label}@sched-sparse/{mode}", algorithm=algorithm,
                sizes=(size,), processors=8,
                adversary=SparseSchedule(), seeds=(0,),
                max_ticks=2_000_000, lane=lane,
            )
            for label, algorithm, size in [
                ("X", AlgorithmX, 512),
                ("W", AlgorithmW, 1024),
                ("trivial", TrivialAssignment, 256),
            ]
            for mode, lane in [("scalar", "fast"), ("auto", "auto")]
        ),
    ))

    scenarios.append(BenchScenario(
        tag="R1_static_proc",
        title="CGP static processor faults — X and froute finish on the "
              "survivors",
        source="bench_fault_frontier.py",
        adversaries=("static-proc",),
        specs=tuple(
            SweepSpec(
                name=f"{label}/static-proc", algorithm=algorithm,
                sizes=(64, 128, 256), adversary=StaticFaults(0.25),
                seeds=(0, 1), max_ticks=2_000_000,
            )
            for label, algorithm in [
                ("X", AlgorithmX), ("froute", FaultRouting),
            ]
        ),
    ))

    scenarios.append(BenchScenario(
        tag="R2_static_mem_routing",
        title="CGP static memory faults — froute routes its certificate "
              "around 25% dead cells",
        source="bench_fault_frontier.py",
        adversaries=("static-mem",),
        specs=(
            SweepSpec(
                name="froute/static-mem", algorithm=FaultRouting,
                sizes=(64, 128, 256),
                adversary=StaticFaults(0.25, 0.25),
                seeds=(0, 1), max_ticks=2_000_000,
            ),
            SweepSpec(
                name="froute/static-mem-only", algorithm=FaultRouting,
                sizes=(64, 128, 256),
                adversary=StaticFaults(0.0, 0.25),
                seeds=(0,), max_ticks=2_000_000,
            ),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="R3_pmem_checkpoint",
        title="PPM checkpoints — Theorem 4.3's restart re-entry work "
              "collapses as checkpoint frequency rises",
        source="bench_fault_frontier.py",
        adversaries=("random",),
        specs=tuple(
            SweepSpec(
                name=f"ppm/ck-{interval}", algorithm=TrivialAssignment,
                sizes=(8,), processors=4,
                adversary=RandomChurn(0.05, 0.4), seeds=(7,),
                runner=PersistentCheckpointRunner(interval),
            )
            for interval in (0, 2, 8, 32)
        ),
    ))

    scenarios.append(BenchScenario(
        tag="R4_hetero_speed",
        title="Heterogeneous speeds — stalls cost parallel time, not "
              "pattern size",
        source="bench_fault_frontier.py",
        adversaries=("speed-classes", "none"),
        specs=(
            SweepSpec(
                name="X/speed-classes", algorithm=AlgorithmX,
                sizes=(64, 128, 256), adversary=SpeedClasses(),
                seeds=(0, 1), max_ticks=2_000_000,
            ),
            SweepSpec(
                name="X/uniform", algorithm=AlgorithmX,
                sizes=(64, 128, 256), adversary=FailureFree(),
                seeds=(0,), max_ticks=2_000_000,
            ),
        ),
    ))

    return {scenario.tag: scenario for scenario in scenarios}


SCENARIOS: Dict[str, BenchScenario] = _build_scenarios()

#: Benchmarks that are not Write-All grid sweeps and stay bespoke.
EXCLUDED: Dict[str, str] = {
    "bench_theorem_4_1_simulation.py":
        "exercises the iterated-Write-All simulator on PRAM programs, "
        "not a Write-All sweep grid",
    "bench_section_5_acc_stalking.py":
        "needs a run-specific off-line schedule and asserts a targeted "
        "starvation (unsolved within budget)",
    "bench_machine_micro.py":
        "measures host wall-clock throughput, not model work",
    "bench_ablation_persistent.py":
        "compares the two simulator pipelines on PRAM programs",
}


def get_scenario(tag: str) -> BenchScenario:
    try:
        return SCENARIOS[tag]
    except KeyError:
        raise KeyError(
            f"unknown scenario {tag!r}; known: {sorted(SCENARIOS)}"
        ) from None


def scenario_tags(include_heavy: bool = True) -> List[str]:
    return [
        tag for tag, scenario in sorted(SCENARIOS.items())
        if include_heavy or not scenario.heavy
    ]


def default_scenario_tags() -> List[str]:
    """The driver's default set: every non-heavy scenario."""
    return scenario_tags(include_heavy=False)


def run_scenario(
    scenario: BenchScenario,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    chaos=None,
    backend: Optional[str] = None,
) -> Tuple[List[ParallelSweepResult], float]:
    """Run every sweep of one scenario; returns (results, wall seconds).

    ``chaos`` (a :class:`~repro.experiments.chaos.ChaosPolicy`) is the
    opt-in fault-injection hook; leave ``None`` for real measurements.
    ``backend`` selects the executor (``serial``, ``pool``,
    ``remote:host:port``); results are backend-independent.
    """
    started = time.perf_counter()
    results = [
        run_sweep_parallel(
            spec, workers=workers, cache_dir=cache_dir, resume=resume,
            timeout=timeout, retries=retries, chaos=chaos, backend=backend,
        )
        for spec in scenario.specs
    ]
    return results, time.perf_counter() - started


def run_benchmarks(
    tags: Iterable[str],
    tag: str = "local",
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    chaos=None,
    backend: Optional[str] = None,
    progress=None,
) -> Tuple[dict, Dict[str, List[ParallelSweepResult]]]:
    """Run scenarios and assemble the ``repro-bench/1`` report.

    Returns ``(report, results_by_scenario)`` — the latter so callers
    (the driver, tests) can also render text tables.
    """
    sections = []
    by_scenario: Dict[str, List[ParallelSweepResult]] = {}
    for scenario_tag in tags:
        scenario = get_scenario(scenario_tag)
        if progress is not None:
            progress(
                f"{scenario.tag}: {len(scenario.specs)} sweeps, "
                f"{scenario.total_points()} points"
            )
        results, wall_s = run_scenario(
            scenario, workers=workers, cache_dir=cache_dir, resume=resume,
            timeout=timeout, retries=retries, chaos=chaos, backend=backend,
        )
        by_scenario[scenario.tag] = results
        sections.append(scenario_section(
            scenario.tag, scenario.title, scenario.source, results, wall_s,
            adversaries=getattr(scenario, "adversaries", ()),
        ))
    report = bench_report(
        tag, sections, workers=workers or 1, backend=backend,
    )
    return report, by_scenario
