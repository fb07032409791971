"""The ``python -m repro perf`` micro-benchmark: fast path vs baseline.

Times Write-All runs through three cores at one configuration:

* **fast** — the machine's optimized tick loop (``fast_path=True``) with
  the incremental O(1) termination predicate and event-horizon
  fast-forward (quiescent windows batched through the fused tick loop);
* **noff** — the same optimized loop with fast-forward disabled
  (``fast_forward=False``), i.e. PR 2's per-tick fast path.  The
  fast/noff ratio isolates what horizon batching alone buys;
* **nokernel** — the fast loop with compiled program kernels disabled
  (``compiled=False``), timed only for algorithms that ship a kernel.
  The nokernel/fast ratio isolates what compiling the cycle stream
  buys over generator dispatch;
* **novec** — with ``--lane vec``, the fast leg runs the numpy batch
  lane and a **novec** leg (same configuration, scalar compiled lane)
  is timed alongside it; the novec/fast ratio (``vec_speedup``)
  isolates what batching all P processors into array ops buys over
  the scalar kernel.  Timed only for algorithms that ship a vector
  program and only when the numpy extra is installed;
* **baseline** — the reference tick implementation
  (``fast_path=False``) with the O(N) termination rescan, i.e. the
  pre-optimization core kept in-tree as the executable specification.

Fault injection is selected from :data:`PERF_ADVERSARIES` — sparse
deterministic scenarios where the event-horizon protocol has long
quiescent windows to exploit.  Every leg builds a fresh adversary from
the same factory, so the legs replay the identical failure pattern.

All legs are timed with warmup + min-of-k repeats
(:mod:`repro.perf.timing`); the fast leg also collects per-phase tick
counters.  The paper-model outputs of the legs (S, S', |F|, ticks,
solved) are asserted identical — a timing harness must never compare two
computations that diverged.

Results can be exported as a ``repro-bench/1`` report (scenario tag
``PERF_micro``) so ``benchmarks/check_regression.py`` can diff perf runs
over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.metrics.report import bench_report
from repro.perf.phases import PhaseCounters
from repro.perf.timing import (
    TimingResult,
    time_callable,
    time_callables_interleaved,
)
from repro.pram.compiled import resolve_kernel
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


@dataclass(frozen=True)
class PerfLeg:
    """One timed core (fast / noff / baseline) at one configuration."""

    mode: str  # "fast" | "noff" | "nokernel" | "novec" | "baseline"
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
    """Fast vs noff vs baseline at one (algorithm, n, p, adversary)."""

    algorithm: str
    n: int
    p: int
    fast: PerfLeg
    baseline: Optional[PerfLeg]
    noff: Optional[PerfLeg] = None
    nokernel: Optional[PerfLeg] = None
    novec: Optional[PerfLeg] = None
    adversary: str = DEFAULT_ADVERSARY
    #: The lane switch the fast leg ran with (False / True / "auto") —
    #: decides whether the novec ratio reports as vec_ or auto_speedup.
    vectorized: "Union[bool, str]" = False

    @property
    def speedup(self) -> Optional[float]:
        """Baseline-over-fast wall-clock ratio (higher is better)."""
        if self.baseline is None or self.fast.best_s <= 0:
            return None
        return self.baseline.best_s / self.fast.best_s

    @property
    def ff_speedup(self) -> Optional[float]:
        """No-fast-forward over fast ratio: the horizon batching win."""
        if self.noff is None or self.fast.best_s <= 0:
            return None
        return self.noff.best_s / self.fast.best_s

    @property
    def kernel_speedup(self) -> Optional[float]:
        """No-kernel over fast ratio: the compiled-kernel win."""
        if self.nokernel is None or self.fast.best_s <= 0:
            return None
        return self.nokernel.best_s / self.fast.best_s

    @property
    def vec_speedup(self) -> Optional[float]:
        """No-vec over fast ratio: the vectorized-lane win.

        Kernel-relative: the novec leg runs the scalar compiled lane,
        so this isolates array batching from everything beneath it.
        Reported only for the hard ``--lane vec`` opt-in; the
        adaptive mode reports :attr:`auto_speedup` instead.
        """
        if self.vectorized == "auto":
            return None
        if self.novec is None or self.fast.best_s <= 0:
            return None
        return self.novec.best_s / self.fast.best_s

    @property
    def auto_speedup(self) -> Optional[float]:
        """No-vec over auto ratio: what adaptive dispatch buys.

        The auto leg may dispatch any mix of vec and scalar windows;
        dividing the forced-scalar leg's time by it answers the
        question the cost model exists for — "is ``--lane auto`` at
        least as fast as the scalar lane here?" (≥ 1.0 means yes; the
        CI gate allows 0.95 for timing noise on small sizes)."""
        if self.vectorized != "auto":
            return None
        if self.novec is None or self.fast.best_s <= 0:
            return None
        return self.novec.best_s / self.fast.best_s


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
    fast_forward: bool = True,
    compiled: bool = True,
    vectorized: "Union[bool, str]" = False,
) -> PerfComparison:
    """Time one configuration through the cores.

    With ``fast_forward=True`` (the default) the fast leg uses horizon
    batching and a **noff** leg (same optimized loop, fast-forward off)
    is timed alongside it, so the comparison carries both the total
    (:attr:`PerfComparison.speedup`) and the batching-only
    (:attr:`PerfComparison.ff_speedup`) ratios.  ``fast_forward=False``
    is the ``--no-fast-forward`` escape hatch: the fast leg runs tick by
    tick and the noff leg is skipped (it would duplicate it).

    With ``compiled=True`` (the default) and an algorithm that ships a
    compiled kernel for this configuration, a **nokernel** leg (same
    loop, generator protocol) is timed alongside the fast leg, carrying
    the kernel-only ratio (:attr:`PerfComparison.kernel_speedup`).
    ``compiled=False`` is the ``--no-compiled`` escape hatch: the fast
    leg itself runs on generators and the nokernel leg is skipped.

    With ``vectorized=True`` (the ``--lane vec`` opt-in) the fast leg
    runs the numpy batch lane; for algorithms that actually ship a
    vector program a **novec** leg (same loop, scalar compiled lane) is
    timed alongside it, carrying the batching-only ratio
    (:attr:`PerfComparison.vec_speedup`).  Requesting it without the
    numpy extra raises the lane's clear unavailability error.

    With ``vectorized="auto"`` (the ``--lane auto`` mode) the fast leg
    runs adaptive per-window dispatch and reports as mode ``auto`` in
    the bench export; the same novec leg then carries
    :attr:`PerfComparison.auto_speedup` — scalar time over auto time,
    the "adaptive never loses" number the CI baselines gate on.
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

    state: Dict[str, WriteAllResult] = {}

    def run_fast() -> None:
        state["fast"] = solve_write_all(
            algorithm_cls(), n, p, adversary=fresh_adversary(),
            fast_path=True, fast_forward=fast_forward, compiled=compiled,
            vectorized=vectorized,
        )

    def run_novec() -> None:
        state["novec"] = solve_write_all(
            algorithm_cls(), n, p, adversary=fresh_adversary(),
            fast_path=True, fast_forward=fast_forward,
            compiled=compiled, vectorized=False,
        )

    has_novec = bool(vectorized) and _has_vectorized(algorithm_cls, n, p)
    novec_timing: Optional[TimingResult] = None
    if has_novec:
        # The vec/auto speedup is a *ratio* of these two legs, so they
        # are timed interleaved: block-by-block timing aliases slow
        # host drift into the ratio (see time_callables_interleaved).
        fast_timing, novec_timing = time_callables_interleaved(
            [run_fast, run_novec], repeats=repeats, warmup=warmup
        )
    else:
        fast_timing = time_callable(run_fast, repeats=repeats, warmup=warmup)
    # The per-phase breakdown comes from one separate instrumented run so
    # the timed repeats above stay free of perf_counter overhead.
    phases = PhaseCounters()
    solve_write_all(algorithm_cls(), n, p, adversary=fresh_adversary(),
                    fast_path=True, fast_forward=fast_forward,
                    compiled=compiled, vectorized=vectorized,
                    phase_counters=phases)
    fast_leg = PerfLeg(
        mode="auto" if vectorized == "auto" else "fast",
        timing=fast_timing, result=state["fast"], phases=phases,
    )
    legs = [fast_leg]

    noff_leg: Optional[PerfLeg] = None
    if fast_forward:

        def run_noff() -> None:
            state["noff"] = solve_write_all(
                algorithm_cls(), n, p, adversary=fresh_adversary(),
                fast_path=True, fast_forward=False, compiled=compiled,
            )

        noff_timing = time_callable(run_noff, repeats=repeats, warmup=warmup)
        noff_leg = PerfLeg(
            mode="noff", timing=noff_timing, result=state["noff"],
            phases=None,
        )
        legs.append(noff_leg)

    nokernel_leg: Optional[PerfLeg] = None
    if compiled and _has_kernel(algorithm_cls, n, p):

        def run_nokernel() -> None:
            state["nokernel"] = solve_write_all(
                algorithm_cls(), n, p, adversary=fresh_adversary(),
                fast_path=True, fast_forward=fast_forward, compiled=False,
            )

        nokernel_timing = time_callable(
            run_nokernel, repeats=repeats, warmup=warmup
        )
        nokernel_leg = PerfLeg(
            mode="nokernel", timing=nokernel_timing,
            result=state["nokernel"], phases=None,
        )
        legs.append(nokernel_leg)

    novec_leg: Optional[PerfLeg] = None
    if has_novec:
        novec_leg = PerfLeg(
            mode="novec", timing=novec_timing,
            result=state["novec"], phases=None,
        )
        legs.append(novec_leg)

    baseline_leg: Optional[PerfLeg] = None
    if include_baseline:

        def run_baseline() -> None:
            state["baseline"] = solve_write_all(
                algorithm_cls(), n, p, adversary=fresh_adversary(),
                fast_path=False, incremental_until=False,
                fast_forward=False, compiled=False,
            )

        baseline_timing = time_callable(
            run_baseline, repeats=repeats, warmup=warmup
        )
        baseline_leg = PerfLeg(
            mode="baseline", timing=baseline_timing,
            result=state["baseline"], phases=None,
        )
        legs.append(baseline_leg)

    _check_legs_agree(legs)
    return PerfComparison(
        algorithm=algorithm, n=n, p=p, fast=fast_leg, baseline=baseline_leg,
        noff=noff_leg, nokernel=nokernel_leg, novec=novec_leg,
        adversary=adversary, vectorized=vectorized,
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
    fast_forward: bool = True,
    compiled: bool = True,
    vectorized: "Union[bool, str]" = False,
) -> List[PerfComparison]:
    """Time every ``(algorithm, n, p)`` x adversary configuration."""
    return [
        run_comparison(
            algorithm, n, p,
            repeats=repeats, warmup=warmup,
            include_baseline=include_baseline,
            adversary=adversary,
            fast_forward=fast_forward,
            compiled=compiled,
            vectorized=vectorized,
        )
        for algorithm, n, p in configurations
        for adversary in adversaries
    ]


# --------------------------------------------------------------------- #
# repro-bench/1 export
# --------------------------------------------------------------------- #


def _leg_point(leg: PerfLeg, n: int, p: int) -> Dict[str, object]:
    result = leg.result
    return {
        "n": n, "p": p, "seed": 0,
        "solved": result.solved,
        "S": result.completed_work,
        "S_prime": result.charged_work,
        "F": result.pattern_size,
        "sigma": result.overhead_ratio,
        "ticks": result.ledger.ticks,
        "wall_s": round(leg.best_s, 6),
        "cached": False,
    }


def sweep_name(comparison: PerfComparison, leg: PerfLeg) -> str:
    """The report sweep naming one leg of one configuration.

    Fault-free comparisons keep the historical ``<algo>/<mode>`` names
    so existing baselines diff cleanly; adversarial ones are
    ``<algo>@<adversary>/<mode>``.
    """
    if comparison.adversary == DEFAULT_ADVERSARY:
        return f"{comparison.algorithm}/{leg.mode}"
    return f"{comparison.algorithm}@{comparison.adversary}/{leg.mode}"


def perf_report(
    comparisons: List[PerfComparison],
    tag: str,
    wall_s: float,
) -> Dict[str, object]:
    """Assemble a ``repro-bench/1`` report (scenario ``PERF_micro``).

    Each configuration contributes one sweep per timed leg (see
    :func:`sweep_name`); ``wall_s`` per point is the min-of-k best time,
    which is what the regression comparator bands.
    """
    sweeps: List[Dict[str, object]] = []
    for comparison in comparisons:
        legs = [comparison.fast]
        if comparison.noff is not None:
            legs.append(comparison.noff)
        if comparison.nokernel is not None:
            legs.append(comparison.nokernel)
        if comparison.novec is not None:
            legs.append(comparison.novec)
        if comparison.baseline is not None:
            legs.append(comparison.baseline)
        for leg in legs:
            record = _leg_point(leg, comparison.n, comparison.p)
            if leg is comparison.fast and comparison.vec_speedup is not None:
                # The headline ratio rides on the fast point so the
                # regression checker can validate it; absent in reports
                # written before the vectorized lane existed.
                record["vec_speedup"] = round(comparison.vec_speedup, 4)
            if leg is comparison.fast and comparison.auto_speedup is not None:
                # Same pattern for the adaptive-dispatch ratio (PR 8);
                # absent in reports written before --lane auto existed.
                record["auto_speedup"] = round(comparison.auto_speedup, 4)
            sweeps.append({
                "name": sweep_name(comparison, leg),
                "points": [record],
                "failures": [],
            })
    executed = sum(len(sweep["points"]) for sweep in sweeps)
    scenario = {
        "tag": "PERF_micro",
        "title": "simulator core micro-benchmark (fast vs baseline)",
        "source": "repro/perf/micro.py",
        "wall_s": round(wall_s, 6),
        "cache": {
            "hits": 0, "executed": executed, "failed": 0, "hit_rate": 0.0,
        },
        "sweeps": sweeps,
    }
    return bench_report(tag, [scenario], workers=1)


def describe_comparison(comparison: PerfComparison) -> str:
    """Multi-line human-readable summary of one configuration."""
    fast = comparison.fast
    scenario = (
        "" if comparison.adversary == DEFAULT_ADVERSARY
        else f" @{comparison.adversary}"
    )
    header = (
        f"{comparison.algorithm}(N={comparison.n}, "
        f"P={comparison.p}){scenario}: "
        f"{fast.mode} {fast.best_s * 1e3:.1f} ms "
        f"({fast.ticks_per_s:,.0f} ticks/s, "
        f"{fast.result.ledger.ticks} ticks, spread "
        f"{100.0 * fast.timing.spread:.0f}%)"
    )
    lines = [header]
    if comparison.noff is not None:
        noff = comparison.noff
        lines.append(
            f"  no-ff {noff.best_s * 1e3:.1f} ms "
            f"({noff.ticks_per_s:,.0f} ticks/s)  "
            f"ff-speedup {comparison.ff_speedup:.2f}x"
        )
    if comparison.nokernel is not None:
        nokernel = comparison.nokernel
        lines.append(
            f"  no-kernel {nokernel.best_s * 1e3:.1f} ms "
            f"({nokernel.ticks_per_s:,.0f} ticks/s)  "
            f"kernel-speedup {comparison.kernel_speedup:.2f}x"
        )
    if comparison.novec is not None:
        novec = comparison.novec
        ratio_label, ratio = (
            ("auto-speedup", comparison.auto_speedup)
            if comparison.vectorized == "auto"
            else ("vec-speedup", comparison.vec_speedup)
        )
        lines.append(
            f"  no-vec {novec.best_s * 1e3:.1f} ms "
            f"({novec.ticks_per_s:,.0f} ticks/s)  "
            f"{ratio_label} {ratio:.2f}x"
        )
    if comparison.baseline is not None:
        baseline = comparison.baseline
        lines.append(
            f"  baseline {baseline.best_s * 1e3:.1f} ms "
            f"({baseline.ticks_per_s:,.0f} ticks/s)  "
            f"speedup {comparison.speedup:.2f}x"
        )
    if fast.phases is not None and (fast.phases.ticks
                                    or fast.phases.fused_ticks):
        lines.append(f"  {fast.phases.describe()}")
    return "\n".join(lines)
