"""The ``python -m repro perf`` micro-benchmark: lanes against lanes.

Times Write-All runs at one configuration on several machine lanes of
:data:`repro.pram.lanes.LANES`.  The **head** leg runs the lane the
user picked (``--lane scalar``, ``vec`` or ``auto``: the ``fast``,
``vec`` or ``auto`` lane) and reports as ``fast``, or as ``auto`` on
the adaptive lane.  The legs in
:data:`ABLATIONS` run beside it, each on one lane, and each one's
ratio (its best time over the head leg's) isolates what the head lane
buys over that lane:

* **noff** — the ``noff`` lane, fast-forward off: the fast/noff ratio
  (``ff_speedup``) is what event-horizon batching alone buys;
* **nokernel** — the ``nokernel`` lane, timed only for algorithms that
  ship a compiled kernel: what compiling the cycle stream buys over
  generator dispatch (``kernel_speedup``);
* **novec** — the scalar ``fast`` lane, timed only when the head lane
  is ``vec`` or ``auto`` and the algorithm ships a vector program
  (with the numpy extra installed): what batching all P processors
  into array ops buys (``vec_speedup``), or what adaptive dispatch
  buys (``auto_speedup``);
* **baseline** — the ``reference`` lane, the executable specification
  (``speedup``); ``--no-baseline`` skips it.

Fault injection is selected from :data:`PERF_ADVERSARIES` — sparse
deterministic scenarios where the event-horizon protocol has long
quiescent windows to exploit.  Every leg builds a fresh adversary from
the same factory, so the legs replay the identical failure pattern.

All legs are timed with warmup + min-of-k repeats
(:mod:`repro.perf.timing`); the head leg also collects per-phase tick
counters.  The paper-model outputs of the legs (S, S', |F|, ticks,
solved) are asserted identical — a timing harness must never compare two
computations that diverged.

The command times; it does not gate.  The model fields of its
headline configurations are gated by the ``A9_lane_matrix`` registry
scenario (:mod:`repro.experiments.bench`), which runs each on the
lanes this command times them on, claims that every lane agrees with
the fast lane, and whose points the committed golden report
(``benchmarks/results/BENCH_golden.json``) pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    SnapshotAlgorithm,
    TrivialAssignment,
    solve_write_all,
)
from repro.core.runner import WriteAllResult
from repro.faults import (
    FailureBudgetAdversary,
    RandomAdversary,
    ScheduledAdversary,
)
from repro.perf.phases import PhaseCounters
from repro.perf.timing import (
    TimingResult,
    time_callable,
    time_callables_interleaved,
)
from repro.pram.compiled import resolve_kernel
from repro.pram.lanes import LANES
from repro.pram.vectorized import HAVE_NUMPY, resolve_vectorized

#: Algorithms runnable by the perf command.
PERF_ALGORITHMS = {
    "trivial": TrivialAssignment,
    "W": AlgorithmW,
    "V": AlgorithmV,
    "X": AlgorithmX,
    "VX": AlgorithmVX,
    "snapshot": SnapshotAlgorithm,
}


def _sched_sparse(p: int) -> ScheduledAdversary:
    """Eight fail/restart event pairs spread 400 ticks apart.

    The schedule is provably quiet between events, so the machine's
    horizon windows are ~400 ticks wide — the regime the fast-forward
    loop targets.  Victims rotate across PIDs so restarts are never
    vacuous on small machines.
    """
    events: Dict[int, Tuple[List[int], List[int]]] = {}
    for k in range(8):
        events[50 + 400 * k] = ([k % p], [])
        events[57 + 400 * k] = ([], [k % p])
    return ScheduledAdversary(events)


def _budget_sparse(p: int) -> FailureBudgetAdversary:
    """A stochastic adversary that falls silent after 16 events.

    Exercises the budget-exhaustion horizon (``QUIET_FOREVER`` once
    spent): the run starts turbulent and ends in one long quiescent
    window.
    """
    return FailureBudgetAdversary(
        RandomAdversary(0.02, 0.5, seed=0), budget=16
    )


#: Fault scenarios for the perf command: name -> factory(p) -> adversary
#: (``None`` = fault-free).  Every leg of a comparison calls the factory
#: afresh, so stateful adversaries replay identically.
PERF_ADVERSARIES: Dict[str, Optional[Callable[[int], object]]] = {
    "none": None,
    "sched-sparse": _sched_sparse,
    "budget-sparse": _budget_sparse,
}

#: The headline configuration: fault-free Write-All at N=4096, P=64.
DEFAULT_SIZE = (4096, 64)
DEFAULT_ALGORITHM = "X"
DEFAULT_ADVERSARY = "none"


#: The legs timed beside the head leg: (report name, registry lane,
#: label in :func:`describe_comparison`).  Which of them run depends on
#: the configuration (see :func:`run_comparison`).
ABLATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("noff", "noff", "no-ff"),
    ("nokernel", "nokernel", "no-kernel"),
    ("novec", "fast", "no-vec"),
    ("baseline", "reference", "baseline"),
)

#: Report name -> ratio name, for the legs whose ratio name does not
#: depend on the head lane (``novec``'s is ``<lane>_speedup``).
_RATIO_NAMES = {
    "noff": "ff_speedup",
    "nokernel": "kernel_speedup",
    "baseline": "speedup",
}


@dataclass(frozen=True)
class PerfLeg:
    """One timed lane at one configuration, under its report name."""

    mode: str
    timing: TimingResult
    result: WriteAllResult
    phases: Optional[PhaseCounters]

    @property
    def best_s(self) -> float:
        return self.timing.best_s

    @property
    def ticks_per_s(self) -> float:
        best = self.timing.best_s
        return self.result.ledger.ticks / best if best > 0 else float("inf")


@dataclass(frozen=True)
class PerfComparison:
    """Every timed leg at one (algorithm, n, p, adversary).

    ``legs`` maps report names to legs, head leg first, the rest in
    :data:`ABLATIONS` order; ``lane`` is the head leg's lane.
    """

    algorithm: str
    n: int
    p: int
    lane: str
    legs: Dict[str, PerfLeg]
    adversary: str = DEFAULT_ADVERSARY

    @property
    def head(self) -> PerfLeg:
        return next(iter(self.legs.values()))

    def ratio_name(self, name: str) -> str:
        """What the ratio of ablation leg ``name`` is called."""
        return _RATIO_NAMES.get(name, f"{self.lane}_speedup")

    def ratios(self) -> Dict[str, float]:
        """Ratio name -> best time of each timed ablation leg over the
        head leg's (higher means the head lane is faster)."""
        head_s = self.head.best_s
        if head_s <= 0:
            return {}
        return {
            self.ratio_name(name): leg.best_s / head_s
            for name, leg in list(self.legs.items())[1:]
        }


def _check_legs_agree(legs: Sequence[PerfLeg]) -> None:
    """All present legs must have produced the same paper-model run."""
    reference = legs[0].result
    fields = (
        ("solved", lambda r: r.solved),
        ("S", lambda r: r.completed_work),
        ("S'", lambda r: r.charged_work),
        ("|F|", lambda r: r.pattern_size),
        ("ticks", lambda r: r.ledger.ticks),
    )
    mismatched = [
        f"{name}: {legs[0].mode}={get(reference)!r} {leg.mode}={get(leg.result)!r}"
        for leg in legs[1:]
        for name, get in fields
        if get(leg.result) != get(reference)
    ]
    if mismatched:
        raise RuntimeError(
            "perf legs diverged on "
            f"{reference.algorithm}(N={reference.n}, P={reference.p}) — "
            "refusing to report timings of different computations: "
            + "; ".join(mismatched)
        )


def run_comparison(
    algorithm: str,
    n: int,
    p: int,
    repeats: int = 5,
    warmup: int = 1,
    include_baseline: bool = True,
    adversary: str = DEFAULT_ADVERSARY,
    lane: str = "fast",
) -> PerfComparison:
    """Time one configuration on ``lane`` and the ablation legs.

    The ``noff`` leg always runs; ``nokernel`` only for algorithms that
    ship a compiled kernel for this configuration; ``novec`` only when
    ``lane`` is ``vec`` or ``auto`` and the algorithm ships a vector
    program; ``baseline`` unless ``include_baseline=False``.  The
    ``vec`` lane without the numpy extra raises the lane's clear
    unavailability error.
    """
    try:
        algorithm_cls = PERF_ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(PERF_ALGORITHMS))
        raise ValueError(
            f"unknown perf algorithm {algorithm!r}; known: {known}"
        ) from None
    try:
        adversary_factory = PERF_ADVERSARIES[adversary]
    except KeyError:
        known = ", ".join(sorted(PERF_ADVERSARIES))
        raise ValueError(
            f"unknown perf adversary {adversary!r}; known: {known}"
        ) from None

    def fresh_adversary():
        return None if adversary_factory is None else adversary_factory(p)

    def solve(leg_lane: str, **kwargs) -> WriteAllResult:
        return solve_write_all(
            algorithm_cls(), n, p, adversary=fresh_adversary(),
            **LANES[leg_lane].solver_kwargs(), **kwargs,
        )

    timed = {
        "noff": True,
        "nokernel": _has_kernel(algorithm_cls, n, p),
        "novec": bool(LANES[lane].vectorized)
        and _has_vectorized(algorithm_cls, n, p),
        "baseline": include_baseline,
    }
    head = "auto" if lane == "auto" else "fast"
    plan = [(head, lane)] + [
        (name, leg_lane) for name, leg_lane, _label in ABLATIONS
        if timed[name]
    ]
    results: Dict[str, WriteAllResult] = {}

    def run(name: str, leg_lane: str) -> None:
        results[name] = solve(leg_lane)

    runs = {name: partial(run, name, leg_lane) for name, leg_lane in plan}
    timings: Dict[str, TimingResult] = {}
    if "novec" in runs:
        # The vec/auto speedup is a *ratio* of these two legs, so they
        # are timed interleaved: block-by-block timing aliases slow
        # host drift into the ratio (see time_callables_interleaved).
        timings[head], timings["novec"] = time_callables_interleaved(
            [runs[head], runs["novec"]], repeats=repeats, warmup=warmup
        )
    for name, timed_run in runs.items():
        if name not in timings:
            timings[name] = time_callable(
                timed_run, repeats=repeats, warmup=warmup
            )
    # The per-phase breakdown comes from one separate instrumented run so
    # the timed repeats above stay free of perf_counter overhead.
    phases = PhaseCounters()
    solve(lane, phase_counters=phases)
    legs = {
        name: PerfLeg(
            mode=name, timing=timings[name], result=results[name],
            phases=phases if name == head else None,
        )
        for name, _leg_lane in plan
    }
    _check_legs_agree(list(legs.values()))
    return PerfComparison(
        algorithm=algorithm, n=n, p=p, lane=lane, legs=legs,
        adversary=adversary,
    )


def _has_kernel(algorithm_cls, n: int, p: int) -> bool:
    """Whether this configuration would actually run a compiled kernel.

    Probes a throwaway instance (algorithms hold incidental state, so
    the timed legs always build their own) through the same trust guard
    and gating the runner uses.
    """
    probe = algorithm_cls()
    layout = probe.build_layout(n, p)
    return resolve_kernel(probe, layout, None, compiled=True) is not None


def _has_vectorized(algorithm_cls, n: int, p: int) -> bool:
    """Whether this configuration would actually run the vector lane.

    Mirrors :func:`_has_kernel` through ``resolve_vectorized``'s trust
    guard and gating; always False without the numpy extra.
    """
    if not HAVE_NUMPY:
        return False
    probe = algorithm_cls()
    layout = probe.build_layout(n, p)
    return resolve_vectorized(probe, layout, None, vectorized=True) is not None


def run_perf(
    configurations: List[Tuple[str, int, int]],
    repeats: int = 5,
    warmup: int = 1,
    include_baseline: bool = True,
    adversaries: Sequence[str] = (DEFAULT_ADVERSARY,),
    lane: str = "fast",
) -> List[PerfComparison]:
    """Time every ``(algorithm, n, p)`` x adversary configuration."""
    return [
        run_comparison(
            algorithm, n, p,
            repeats=repeats, warmup=warmup,
            include_baseline=include_baseline,
            adversary=adversary,
            lane=lane,
        )
        for algorithm, n, p in configurations
        for adversary in adversaries
    ]


def describe_comparison(comparison: PerfComparison) -> str:
    """Multi-line human-readable summary of one configuration."""
    head = comparison.head
    scenario = (
        "" if comparison.adversary == DEFAULT_ADVERSARY
        else f" @{comparison.adversary}"
    )
    lines = [
        f"{comparison.algorithm}(N={comparison.n}, "
        f"P={comparison.p}){scenario}: "
        f"{head.mode} {head.best_s * 1e3:.1f} ms "
        f"({head.ticks_per_s:,.0f} ticks/s, "
        f"{head.result.ledger.ticks} ticks, spread "
        f"{100.0 * head.timing.spread:.0f}%)"
    ]
    ratios = comparison.ratios()
    for name, _leg_lane, label in ABLATIONS:
        leg = comparison.legs.get(name)
        if leg is None:
            continue
        ratio_name = comparison.ratio_name(name)
        ratio = ratios.get(ratio_name)
        shown = "n/a" if ratio is None else f"{ratio:.2f}x"
        lines.append(
            f"  {label} {leg.best_s * 1e3:.1f} ms "
            f"({leg.ticks_per_s:,.0f} ticks/s)  "
            f"{ratio_name.replace('_', '-')} {shown}"
        )
    if head.phases is not None and (head.phases.ticks
                                    or head.phases.fused_ticks):
        lines.append(f"  {head.phases.describe()}")
    return "\n".join(lines)
