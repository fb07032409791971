"""The benchmark scenario registry, its paper claims, and the driver.

Every experiment that reproduces a claim of the paper as a grid of
Write-All runs is registered here as a :class:`BenchScenario`: a
bundle of picklable :class:`~repro.experiments.spec.SweepSpec` s that
the parallel engine can execute, cache and time, plus the scenario's
:class:`Claim` s, the bounds its measured series must keep.  The driver
(``benchmarks/driver.py`` / ``python -m repro bench``) runs the
selected scenarios as one batch through
:func:`repro.experiments.parallel.run_sweep_parallel`, checks every
claim of every scenario it ran, and emits a ``BENCH_<tag>.json`` report
(see :mod:`repro.metrics.report`) with each measured value next to its
bound.  The run exits 1 if a point fails or a claim does not hold.

A claim is data: an id, the statement, a measure (one of the helpers
below, mapping the scenario's results to one number), a comparison and
a bound.  Every scenario also carries an implicit ``<prefix>.solved``
claim: every point finishes, except in the sweeps the scenario declares
``dnf`` (did not finish), whose own claims say how they fail.  A
scenario with a quarantined point fails all of its claims.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
from repro.experiments.runner import RunPoint
from repro.experiments.spec import SweepSpec
from repro.metrics.bounds import (
    log2ceil,
    sigma_bound_thm41,
    work_lower_thm31,
    work_lower_thm48,
    work_upper_lemma42,
    work_upper_thm32,
    work_upper_thm43,
    work_upper_thm47,
)
from repro.metrics.fitting import doubling_exponents, fitted_exponent, ratio_series
from repro.metrics.report import bench_report, scenario_section
from repro.pram.lanes import lane_available

#: What a measure reads: sweep name -> that sweep's points.
Results = Dict[str, List[RunPoint]]
#: One sweep name, or several read as one pool of points.
Sweeps = Union[str, Tuple[str, ...]]
#: A bound term: the predicted value at one point.
Term = Callable[[RunPoint], float]

#: The report's ``source``: where the scenarios and their claims live.
SOURCE = "repro/experiments/bench.py"

_OPS = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq,
    ">=": operator.ge, ">": operator.gt,
}


@dataclass(frozen=True)
class Claim:
    """One paper claim as data: ``measure(results) <op> bound``."""

    id: str             # e.g. "E8.ratio"; unique across the registry
    statement: str      # what holds, one line
    measure: Callable[[Results], float]
    op: str             # a key of _OPS
    bound: float

    def check(self, results: Results) -> Tuple[float, bool]:
        measured = self.measure(results)
        return measured, _OPS[self.op](measured, self.bound)


def _select(results: Results, sweeps: Sweeps) -> List[RunPoint]:
    names = (sweeps,) if isinstance(sweeps, str) else sweeps
    return [point for name in names for point in results[name]]


def _worst_by(points: Sequence[RunPoint], over: str,
              field: str) -> Tuple[List[int], List[float]]:
    """The worst (largest) ``field`` per value of ``over``, ascending —
    Definition 2.3's maximum over failure patterns."""
    worst: Dict[int, float] = {}
    for point in points:
        x, y = getattr(point, over), getattr(point, field)
        worst[x] = max(worst.get(x, y), y)
    xs = sorted(worst)
    return xs, [worst[x] for x in xs]


def exponent(sweeps: Sweeps, field: str = "completed_work", over: str = "n",
             steps: Optional[Callable[[List[float]], float]] = None):
    """The log-log exponent of the worst ``field`` against ``over``
    (``n`` or ``p``): the least-squares fit, or with ``steps`` that
    reduction of the per-doubling exponents (e.g. ``max``)."""
    def measure(results: Results) -> float:
        xs, ys = _worst_by(_select(results, sweeps), over, field)
        if steps is None:
            return fitted_exponent(xs, ys)
        return steps(doubling_exponents(xs, ys))
    return measure


def _ratios(results: Results, sweeps: Sweeps, term: Optional[Term],
            field: str) -> List[float]:
    points = _select(results, sweeps)
    return ratio_series(
        [getattr(point, field) for point in points],
        [term(point) if term else 1 for point in points],
    )


def ratio(sweeps: Sweeps, term: Optional[Term] = None,
          field: str = "completed_work", worst=max):
    """The ``worst`` (``max`` or ``min``) of ``field / term(point)``
    over the points; without a term, of ``field`` itself."""
    return lambda results: worst(_ratios(results, sweeps, term, field))


def flatness(sweeps: Sweeps, term: Term, field: str = "completed_work"):
    """max / min of ``field / term(point)``: 1.0 is a perfectly flat
    series, so the bound term has the measured shape."""
    def measure(results: Results) -> float:
        ratios = _ratios(results, sweeps, term, field)
        return max(ratios) / min(ratios)
    return measure


def pointwise(a: Sweeps, b: Sweeps, field: str = "completed_work",
              worst=max, scale: float = 1.0, slack: float = 0.0):
    """The ``worst`` of ``a / (scale * b + slack * N)`` over every point
    of ``a`` against every point of ``b`` at the same N."""
    def measure(results: Results) -> float:
        return worst(
            getattr(mine, field)
            / (scale * getattr(other, field) + slack * mine.n)
            for mine in _select(results, a)
            for other in _select(results, b) if other.n == mine.n
        )
    return measure


def differing(a: str, b: str):
    """How many points of two sweeps over one grid differ in their
    model fields (solved, S, S', |F|, ticks)."""
    def model(point: RunPoint) -> tuple:
        return (point.n, point.p, point.seed, point.solved,
                point.completed_work, point.charged_work,
                point.pattern_size, point.parallel_time)

    def measure(results: Results) -> int:
        mine, other = results[a], results[b]
        return abs(len(mine) - len(other)) + sum(
            model(x) != model(y) for x, y in zip(mine, other)
        )
    return measure


def unsolved(sweeps: Sweeps):
    """How many points did not finish within their tick budget."""
    def measure(results: Results) -> int:
        return sum(not point.solved for point in _select(results, sweeps))
    return measure


@dataclass(frozen=True)
class BenchScenario:
    """One benchmark experiment as engine-runnable sweeps and claims."""

    tag: str            # e.g. "E2_thm31_lower_bound"
    title: str          # the claim, one line
    specs: Tuple[SweepSpec, ...]
    claims: Tuple[Claim, ...] = ()
    #: Sweeps whose points are expected not to finish; the implicit
    #: ``solved`` claim skips them.
    dnf: Tuple[str, ...] = ()
    heavy: bool = False  # excluded from the driver's default set
    #: Registry adversary names (repro.faults.registry) the scenario
    #: exercises; recorded in the report so the regression checker can
    #: verify the baseline's fault models still exist
    #: (``model-tag-missing``).  Empty for pre-registry scenarios.
    adversaries: Tuple[str, ...] = ()

    def total_points(self) -> int:
        return sum(len(list(spec.points())) for spec in self.specs)

    def all_claims(self) -> Tuple[Claim, ...]:
        """The implicit ``solved`` claim, then the declared ones."""
        finishing = tuple(
            spec.name for spec in self.specs if spec.name not in self.dnf
        )
        solved = Claim(
            f"{self.tag.split('_', 1)[0]}.solved",
            "every point finishes" + (
                f" (not {', '.join(self.dnf)})" if self.dnf else ""
            ),
            unsolved(finishing), "==", 0,
        )
        return (solved,) + self.claims

    def evaluate(self, results: List[ParallelSweepResult]) -> List[dict]:
        """Each claim's report record.  A quarantined point leaves the
        series incomplete, so every claim then reads ``ok: false``."""
        points = {result.spec.name: result.points for result in results}
        complete = not any(result.failures for result in results)
        records = []
        for claim in self.all_claims():
            measured, ok = claim.check(points) if complete else (None, False)
            records.append({
                "id": claim.id, "statement": claim.statement,
                "measured": measured, "op": claim.op, "bound": claim.bound,
                "ok": ok,
            })
        return records


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


def _size(point: RunPoint) -> float:
    return point.n


def _lemma42(point: RunPoint) -> float:
    return work_upper_lemma42(point.n, point.p)


def _thm47(point: RunPoint) -> float:
    return work_upper_thm47(point.n, point.p)


def _perf_grid_processors(n: int) -> int:
    """P on the lane matrix's kernel grid: 512x32 and 4096x64."""
    return 32 if n <= 512 else 64


def _lane_groups() -> List[tuple]:
    """The lane matrix as ``(group, algorithm, sizes, P, adversary,
    lanes)`` rows, ``fast`` first in every row: the configurations
    where each lane's optimization was first measured, each on the
    lanes that isolate it.  ``sched-sparse`` is
    ``SparseSchedule(victims=8)`` at seed 0, eight fail/restart pairs
    400 ticks apart on PIDs 0 to 7; ``vec`` rows exist only where
    numpy does."""
    sched_sparse = SparseSchedule(victims=8)
    vec = ("vec",) if lane_available("vec") else ()
    kernel_lanes = ("fast", "noff", "nokernel")
    rows = [
        # The kernel grid: every kernel algorithm, against the reference;
        # the three with a vector program also on vec, fault-free.
        (f"{label}@{adversary}/512x32+4096x64", algorithm, (512, 4096),
         _perf_grid_processors, factory,
         kernel_lanes + ("reference",)
         + (vec if factory is None and label not in ("V", "VX") else ()))
        for label, algorithm in [
            ("trivial", TrivialAssignment), ("W", AlgorithmW),
            ("X", AlgorithmX), ("V", AlgorithmV), ("VX", AlgorithmVX),
        ]
        for adversary, factory in [("none", None),
                                   ("sched-sparse", sched_sparse)]
    ]
    # The N=65536 headlines, without the O(N)-per-tick reference lane.
    rows += [
        ("trivial@none/65536x64", TrivialAssignment, (65536,), 64, None,
         kernel_lanes + vec + ("auto",)),
        ("trivial@sched-sparse/65536x64", TrivialAssignment, (65536,), 64,
         sched_sparse, kernel_lanes + ("auto",)),
        ("W@none/65536x64", AlgorithmW, (65536,), 64, None, kernel_lanes),
        ("W@sched-sparse/65536x64", AlgorithmW, (65536,), 64, sched_sparse,
         kernel_lanes),
    ]
    # Adaptive dispatch at the small sizes where forced vec lost.
    rows += [
        (f"{label}@sched-sparse/256x8+512x8+1024x8", algorithm,
         (256, 512, 1024), 8, sched_sparse, kernel_lanes + ("auto",))
        for label, algorithm in [
            ("trivial", TrivialAssignment), ("W", AlgorithmW),
            ("X", AlgorithmX),
        ]
    ]
    # Event-horizon batching's headline.
    rows.append(("trivial@sched-sparse/65536x8", TrivialAssignment,
                 (65536,), 8, sched_sparse, ("fast", "noff")))
    return rows


def _build_scenarios() -> Dict[str, BenchScenario]:
    scenarios: List[BenchScenario] = []

    scenarios.append(BenchScenario(
        tag="E1_thrashing",
        title="Example 2.2 — thrashing separates S from S'",
        specs=(SweepSpec(
            name="X/thrashing", algorithm=AlgorithmX,
            sizes=(32, 64, 128, 256), adversary=Thrashing(),
            seeds=(0,), max_ticks=1_000_000,
        ),),
        claims=(
            Claim("E1.charged_exponent",
                  "S' grows ~quadratically: fitted exponent of S' over N",
                  exponent("X/thrashing", "charged_work"), ">", 1.7),
            Claim("E1.completed_exponent",
                  "S stays near-linear: fitted exponent of S over N",
                  exponent("X/thrashing"), "<", 1.4),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E2_thm31_lower_bound",
        title="Theorem 3.1 — halving forces Omega(N log N) from everyone",
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
        claims=tuple(
            Claim(f"E2.{label}_floor",
                  f"{label}: S / (N log N) stays at or above 0.4 at every N",
                  ratio(f"{label}/halving",
                        lambda point: work_lower_thm31(point.n), worst=min),
                  ">=", 0.4)
            for label in ("snapshot", "X", "VX")
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E3_thm32_snapshot",
        title="Theorem 3.2 — snapshot algorithm is Theta(N log N)",
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
        claims=(
            Claim("E3.flat", "S / (N log N) under halving is flat: "
                  "max/min of the ratio",
                  flatness("snapshot/halving",
                           lambda point: work_upper_thm32(point.n)),
                  "<=", 3.0),
            Claim("E3.ratio_min", "S / (N log N) under halving, smallest",
                  ratio("snapshot/halving",
                        lambda point: work_upper_thm32(point.n), worst=min),
                  ">=", 0.4),
            Claim("E3.ratio_max", "S / (N log N) under halving, largest",
                  ratio("snapshot/halving",
                        lambda point: work_upper_thm32(point.n)),
                  "<=", 8.0),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E4_lemma42_v_failstop",
        title="Lemma 4.2 — V crash-only: S = O(N + P log^2 N)",
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
        claims=(
            Claim("E4.dense_flat", "P = N: S / (N + P log^2 N) is flat "
                  "(max/min)",
                  flatness("V/crash-dense", _lemma42), "<=", 4.0),
            Claim("E4.slack_flat", "P = N / log^2 N: S / (N + P log^2 N) "
                  "is flat (max/min)",
                  flatness("V/crash-slack", _lemma42), "<=", 4.0),
            Claim("E4.ratio_max", "S / (N + P log^2 N), largest in both "
                  "regimes",
                  ratio(("V/crash-dense", "V/crash-slack"), _lemma42),
                  "<=", 4.0),
        ),
    ))

    budget_specs = tuple(
        SweepSpec(
            name=f"V/budget-{budget}", algorithm=AlgorithmV,
            sizes=(256,),
            adversary=Budgeted(RandomChurn(0.25, 0.4), budget),
            seeds=(3,), max_ticks=4_000_000,
        )
        for budget in (0, 64, 256, 1024, 4096)
    )
    scenarios.append(BenchScenario(
        tag="E5_thm43_v_restarts",
        title="Theorem 4.3 — V with restarts: marginal work O(log N)/event",
        specs=budget_specs,
        claims=(
            Claim("E5.ratio_max", "S / (N + P log^2 N + |F| log N), "
                  "largest over the budgets",
                  ratio(tuple(spec.name for spec in budget_specs),
                        lambda point: work_upper_thm43(
                            point.n, point.p, point.pattern_size)),
                  "<=", 4.0),
            Claim("E5.grows", "work grows with the pattern: "
                  "S(budget 0) / S(budget 4096)",
                  pointwise("V/budget-0", "V/budget-4096"), "<=", 1.0),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E6_lemma44_x_termination",
        title="Lemma 4.4 — X terminates in every environment",
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
            SweepSpec(name="X/sequential", algorithm=AlgorithmX,
                      sizes=(128,), processors=1, adversary=FailureFree(),
                      seeds=(0,), max_ticks=2_000_000),
        ),
        claims=(
            Claim("E6.free_ticks", "failure-free X finishes in ~log N "
                  "ticks: its ticks",
                  ratio("X/no-failures", field="parallel_time"), "<=", 16),
            Claim("E6.sequential_min", "a lone processor takes Theta(N) "
                  "ticks: ticks / N at least",
                  ratio("X/sequential", _size, "parallel_time", min),
                  ">=", 0.5),
            Claim("E6.sequential_max", "a lone processor takes Theta(N) "
                  "ticks: ticks / N at most",
                  ratio("X/sequential", _size, "parallel_time"),
                  "<=", 12),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E7_thm48_x_stalking",
        title="Theorem 4.8 — stalked X hits ~N^{log2 3}",
        heavy=True,
        specs=(SweepSpec(
            name="X/stalker", algorithm=AlgorithmX,
            sizes=(16, 32, 64, 128, 256), adversary=Stalker(),
            seeds=(0,), max_ticks=20_000_000,
        ),),
        claims=(
            Claim("E7.exponent_min", "fitted exponent of S over N reaches "
                  "log2 3 - 0.1",
                  exponent("X/stalker"), ">=", math.log2(3) - 0.1),
            Claim("E7.exponent_max", "fitted exponent of S over N stays "
                  "sub-quadratic",
                  exponent("X/stalker"), "<", 2.0),
            Claim("E7.converges", "per-doubling exponent converges from "
                  "above: last minus first",
                  exponent("X/stalker",
                           steps=lambda steps: steps[-1] - steps[0]),
                  "<=", 0.0),
            Claim("E7.floor", "S / N^{log2 3} at every N",
                  ratio("X/stalker",
                        lambda point: work_lower_thm48(point.n), worst=min),
                  ">=", 0.5),
        ),
    ))

    stalked_specs = tuple(
        SweepSpec(
            name=f"X/stalker-p{p}", algorithm=AlgorithmX,
            sizes=(256,), processors=p, adversary=Stalker(),
            seeds=(0,), max_ticks=20_000_000,
        )
        for p in (1, 4, 16, 64, 256)
    )
    stalked = tuple(spec.name for spec in stalked_specs)
    scenarios.append(BenchScenario(
        tag="E8_thm47_x_sublinear",
        title="Theorem 4.7 — X with P <= N: S = O(N * P^0.59)",
        heavy=True,
        specs=stalked_specs,
        claims=(
            Claim("E8.ratio", "S / (N P^{log2(3/2)+0.015}), largest over "
                  "the P sweep",
                  ratio(stalked, _thm47), "<=", 16.0),
            Claim("E8.flat", "S / (N P^{log2(3/2)+0.015}) is flat across "
                  "P (max/min)",
                  flatness(stalked, _thm47), "<=", 2.0),
            Claim("E8.grows", "work grows with P: S(P=1) / S(P=256)",
                  pointwise("X/stalker-p1", "X/stalker-p256"), "<", 1.0),
            Claim("E8.sublinear", "doubling P never doubles S: largest "
                  "per-step exponent of S over P",
                  exponent(stalked, over="p", steps=max), "<", 1.0),
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
        heavy=True,
        dnf=("V/starver",),
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
        ) + (
            # Each algorithm's tailored worst case: the iteration
            # starver (Section 4.1) and the post-order stalker.
            SweepSpec(name="V/starver", algorithm=AlgorithmV,
                      sizes=(128,), adversary=Starver(), seeds=(0,),
                      max_ticks=3_000),
        ) + tuple(
            SweepSpec(name=f"{label}/stalker", algorithm=algorithm,
                      sizes=(128,), adversary=Stalker(), seeds=(0,),
                      max_ticks=20_000_000)
            for label, algorithm in [("X", AlgorithmX), ("VX", AlgorithmVX)]
        ),
        claims=(
            Claim("E9.benign", "crash-only churn: S(V+X) / (4 S(V) + 8N)",
                  pointwise("VX/crash2", "V/crash2", scale=4, slack=8),
                  "<=", 1.0),
            Claim("E9.starved", "the iteration starver keeps pure V from "
                  "finishing: unfinished points",
                  unsolved("V/starver"), "==", 1),
            Claim("E9.starved_work", "starved V still works: S / N",
                  ratio("V/starver", _size, worst=min), ">", 4.0),
            Claim("E9.stalked", "the stalker: S(V+X) / (4 S(X) + 8N)",
                  pointwise("VX/stalker", "X/stalker", scale=4, slack=8),
                  "<=", 1.0),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E10_corollaries_sigma",
        title="Corollaries 4.10/4.11 — sigma improves with |F|",
        specs=tuple(
            SweepSpec(
                name=f"VX/{label}", algorithm=AlgorithmVX,
                sizes=(128,), adversary=Budgeted(Thrashing(), budget),
                seeds=(0,), max_ticks=4_000_000,
            )
            for label, budget in _sigma_regimes(128)
        ),
        claims=(
            Claim("E10.sigma_falls_1", "sigma(|F| <= P) / "
                  "sigma(|F| ~ N log N)",
                  pointwise("VX/F<=P", "VX/F~NlogN", "overhead_ratio", min),
                  ">=", 1.0),
            Claim("E10.sigma_falls_2", "sigma(|F| ~ N log N) / "
                  "sigma(|F| ~ N^1.6)",
                  pointwise("VX/F~NlogN", "VX/F~N^1.6", "overhead_ratio",
                            min),
                  ">=", 1.0),
            Claim("E10.cor410", "Corollary 4.10, |F| <= P: "
                  "sigma / log^2 N",
                  ratio("VX/F<=P", lambda point: sigma_bound_thm41(point.n),
                        "overhead_ratio"),
                  "<=", 6.0),
            Claim("E10.cor411_log", "Corollary 4.11, |F| ~ N log N: "
                  "sigma / log N",
                  ratio("VX/F~NlogN", lambda point: log2ceil(point.n),
                        "overhead_ratio"),
                  "<=", 6.0),
            Claim("E10.cor411_const", "Corollary 4.11, |F| ~ N^1.6: sigma",
                  ratio("VX/F~N^1.6", field="overhead_ratio"), "<=", 6.0),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="E14_lemma45_oversubscription",
        title="Lemma 4.5 — oversubscribed X: S_{N,P} <= ceil(P/N)*S_{N,N}",
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
        claims=tuple(
            Claim(f"E14.burst_x{multiple}",
                  f"S(P={multiple}N) / ({multiple} S(P=N) + "
                  f"{4 * multiple}N) under bursts",
                  pointwise(f"X/burst-x{multiple}", "X/burst-x1",
                            scale=multiple, slack=4 * multiple),
                  "<=", 1.0)
            for multiple in (2, 4, 8)
        ) + tuple(
            Claim(f"E14.free_x{multiple}",
                  f"failure-free PID-mod-N duplication: "
                  f"S(P={multiple}N) / ({multiple} S(P=N))",
                  pointwise(f"X/free-x{multiple}", "X/free-x1",
                            scale=multiple),
                  "==", 1.0)
            for multiple in (2, 4, 8)
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A1_x_routing",
        title="Ablation — X's PID-bit routing vs degenerate rules",
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
        claims=tuple(
            Claim(f"A1.pid_vs_{rule}",
                  f"PID routing does at most the work of always-{rule}: "
                  f"S(pid) / S({rule})",
                  pointwise("X/routing-pid", f"X/routing-{rule}"),
                  "<=", 1.0)
            for rule in ("left", "right")
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A2_v_chunk",
        title="Ablation — V's elements-per-leaf sweet spot is ~log N",
        specs=tuple(
            SweepSpec(
                name=f"V/chunk-{chunk}",
                algorithm=functools.partial(AlgorithmV, chunk=chunk),
                sizes=(256,), processors=64, adversary=CrashOnly(0.02),
                seeds=(5,), max_ticks=4_000_000,
            )
            for chunk in (1, 8, 16, 64, 256)
        ),
        claims=tuple(
            Claim(f"A2.log_n_vs_chunk{chunk}",
                  f"~log N elements per leaf beat {chunk}: "
                  f"S(chunk 8) / S(chunk {chunk})",
                  pointwise("V/chunk-8", f"V/chunk-{chunk}"), "<=", 1.0)
            for chunk in (1, 256)
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A3_fairness",
        title="Ablation — fairness window trades vetoes for time",
        specs=tuple(
            SweepSpec(
                name=f"VX/window-{'off' if window is None else window}",
                algorithm=AlgorithmVX, sizes=(64,), adversary=Starver(),
                seeds=(0,), max_ticks=2_000_000, fairness_window=window,
            )
            for window in (None, 16, 4, 1)
        ),
        claims=(
            Claim("A3.window", "a tight fairness window shortens the run: "
                  "ticks(window 1) / ticks(off)",
                  pointwise("VX/window-1", "VX/window-off",
                            "parallel_time"),
                  "<=", 1.0),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A4_x_failstop_conjecture",
        title="Open problem — X under fail-stop: ~N log N log log N?",
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
        claims=(
            Claim("A4.exponent", "worst fail-stop S stays below the "
                  "restart regime: fitted exponent over N",
                  exponent(("X/norestart-halving", "X/norestart-stalker")),
                  "<", math.log2(3)),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A6_w_vs_v",
        title="Section 4.1 — V beats W under restart churn",
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
        claims=(
            Claim("A6.free", "failure-free, W pays its enumeration: "
                  "S(W) / S(V)",
                  pointwise("W/free", "V/free", worst=min), ">=", 1.0),
            Claim("A6.churn", "under identical churn: S(W) / S(V)",
                  pointwise("W/churn", "V/churn", worst=min), ">=", 0.8),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A7_horizon_sparse",
        title="Event-horizon batching — sparse offline faults, model "
              "invariant with fast-forward on/off",
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
        claims=(
            Claim("A7.model_invisible", "fast-forward on and off: points "
                  "whose model fields differ",
                  differing("X/sched-sparse/ff", "X/sched-sparse/noff"),
                  "==", 0),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="A8_adaptive_smallsize",
        title="Adaptive dispatch — small sizes where forced vec lost; "
              "auto must match scalar's model exactly",
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
        claims=tuple(
            Claim(f"A8.{label}_model_invisible",
                  f"{label}: auto and scalar lanes, points whose model "
                  f"fields differ",
                  differing(f"{label}@sched-sparse/scalar",
                            f"{label}@sched-sparse/auto"),
                  "==", 0)
            for label in ("X", "W", "trivial")
        ),
    ))

    lane_groups = _lane_groups()
    scenarios.append(BenchScenario(
        tag="A9_lane_matrix",
        title="Lane matrix — each perf headline configuration, on every "
              "lane perf times it on, matches the fast lane's model",
        heavy=True,
        specs=tuple(
            SweepSpec(
                name=f"{group}/{lane}", algorithm=algorithm, sizes=sizes,
                processors=processors, adversary=adversary, seeds=(0,),
                lane=lane,
            )
            for group, algorithm, sizes, processors, adversary, lanes
            in lane_groups
            for lane in lanes
        ),
        claims=tuple(
            Claim(f"A9.{group}/{lane}",
                  f"{lane} and fast lanes, points whose model fields differ",
                  differing(f"{group}/{lane}", f"{group}/fast"), "==", 0)
            for group, _algorithm, _sizes, _processors, _adversary, lanes
            in lane_groups
            for lane in lanes[1:]
        ),
    ))

    scenarios.append(BenchScenario(
        tag="R1_static_proc",
        title="CGP static processor faults — X and froute finish on the "
              "survivors",
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
        claims=(
            Claim("R3.amortized", "some checkpoint interval beats re-entry "
                  "from scratch: min S(interval > 0) / S(interval 0)",
                  pointwise(("ppm/ck-2", "ppm/ck-8", "ppm/ck-32"),
                            "ppm/ck-0", worst=min),
                  "<", 1.0),
        ),
    ))

    scenarios.append(BenchScenario(
        tag="R4_hetero_speed",
        title="Heterogeneous speeds — stalls cost parallel time, not "
              "pattern size",
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
        claims=(
            Claim("R4.no_pattern", "stalls never enter F: largest |F| "
                  "under speed classes",
                  ratio("X/speed-classes", field="pattern_size"), "==", 0),
            Claim("R4.slower", "stalls cost parallel time: "
                  "ticks(speed classes) / ticks(uniform)",
                  pointwise("X/speed-classes", "X/uniform", "parallel_time",
                            min),
                  ">", 1.0),
        ),
    ))

    return {scenario.tag: scenario for scenario in scenarios}


SCENARIOS: Dict[str, BenchScenario] = _build_scenarios()

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
    """Run scenarios as one engine run and assemble the report.

    Every selected scenario's specs go to a single
    :func:`~repro.experiments.parallel.run_sweep_parallel` call: one
    cache pass, one backend (one pool for ``workers > 1``), no barrier
    between sweeps.  A scenario's ``wall_s`` is the seconds from the
    run's start until its last point settled.  ``chaos`` (a
    :class:`~repro.experiments.chaos.ChaosPolicy`) is the opt-in
    fault-injection hook; leave ``None`` for real measurements.
    ``backend`` selects the executor (``serial`` or ``pool``); results
    are backend-independent.

    The selection runs once per distinct tag, in first-seen order.
    Every selected scenario's claims are checked and recorded in its
    report section (``claims``), with the run's ``totals.claims`` and
    ``totals.claims_failed``.

    Returns ``(report, results_by_scenario)`` — the latter so callers
    (the driver, tests) can also render text tables.
    """
    scenarios = [get_scenario(scenario_tag) for scenario_tag in dict.fromkeys(tags)]
    if progress is not None:
        for scenario in scenarios:
            progress(
                f"{scenario.tag}: {len(scenario.specs)} sweeps, "
                f"{scenario.total_points()} points"
            )
    results = iter(run_sweep_parallel(
        [spec for scenario in scenarios for spec in scenario.specs],
        workers=workers, cache_dir=cache_dir, resume=resume,
        timeout=timeout, retries=retries, chaos=chaos, backend=backend,
    ))
    sections = []
    by_scenario: Dict[str, List[ParallelSweepResult]] = {}
    for scenario in scenarios:
        own = [next(results) for _ in scenario.specs]
        by_scenario[scenario.tag] = own
        sections.append(scenario_section(
            scenario.tag, scenario.title, SOURCE, own,
            max((result.stats.wall_s for result in own), default=0.0),
            adversaries=scenario.adversaries,
            claims=scenario.evaluate(own),
        ))
    report = bench_report(
        tag, sections, workers=workers or 1, backend=backend,
    )
    return report, by_scenario
