"""Deterministic fault injection for the experiment engine itself.

The paper's subject is computation that makes progress while an
adversary crashes and restarts processors; the sweep/bench harness that
produces every ``BENCH_*.json`` deserves the same treatment.  This
module is the harness's adversary: a seeded, deterministic
:class:`ChaosPolicy` that injects

* **worker crashes** — ``os._exit`` inside ``execute_point`` (the
  process-pool equivalent of a fail-stop fault; inline runs raise
  :class:`ChaosCrash` instead so the driving process survives),
* **stalls** — a busy-wait past the per-point deadline, exercising the
  timeout guard,
* **transient errors** — a raised :class:`ChaosError`, exercising the
  retry path, and
* **cache corruption** — truncating or bit-flipping a just-written
  result-cache entry, exercising checksum detection and self-healing
  recompute on resume,

on a schedule that is a pure function of ``(seed, point index,
attempt)``.  Like the PRAM adversaries in :mod:`repro.faults`, the
policy never consumes global random state and never depends on
execution order, so the same seed injects the same faults whether the
sweep runs inline, across four workers, or resumed after a kill — which
is what lets :func:`run_soak` assert bit-identical convergence.

``python -m repro chaos`` runs the soak: a fault-free serial baseline,
a chaos-injected parallel pass, and a resume pass over the (partially
corrupted) cache, asserting all three produce identical points.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults import registry

#: Exit status used for injected worker crashes — distinctive in logs.
CHAOS_EXIT_CODE = 113

#: The soak grid's PRAM adversary: model-level churn under the
#: harness-level faults this module injects.
SOAK_ADVERSARY = registry.spec("random", fail=0.15, restart_prob=0.4)

#: Execution-fault kinds, in threshold order (see ChaosPolicy.plan).
#: The order is part of every schedule: reordering it re-seeds every
#: soak (``tests/experiments/test_chaos.py`` pins the schedules).
EXEC_KINDS = ("crash", "stall", "error")


class ChaosError(RuntimeError):
    """An injected transient failure (retryable by design)."""


class ChaosCrash(RuntimeError):
    """Inline stand-in for an injected worker crash.

    In a pool worker the policy calls ``os._exit`` — a real fail-stop.
    Inline (``workers <= 1`` or a pool degraded to inline execution) that
    would kill the driving process, so the crash surfaces as this
    exception and is accounted with ``kind="crash"``.
    """


def _unit(seed: int, *parts: object) -> float:
    """A uniform [0, 1) draw that is a pure function of its arguments.

    Hash-derived rather than ``random.Random`` so there is no stream to
    keep in sync: any party (worker, parent, a resumed run) computes the
    same draw from the same coordinates.
    """
    material = "|".join(str(part) for part in (seed,) + parts)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


@dataclass(frozen=True)
class ChaosPolicy:
    """A seeded, order-independent fault schedule for sweep points.

    Frozen and scalar-only, so it pickles across the process boundary
    and fingerprints stably.  ``plan(index, attempt)`` is consulted by
    the worker (to act) and by the engine (to account) and both see the
    same answer; injection stops after ``max_faults_per_point``
    attempts, which guarantees every point eventually computes cleanly
    when ``retries`` is at least that large.
    """

    seed: int = 0
    crash: float = 0.0    # P(injected worker crash) per attempt
    stall: float = 0.0    # P(busy-wait past the deadline) per attempt
    error: float = 0.0    # P(transient exception) per attempt
    corrupt: float = 0.0  # P(corrupting the point's cache entry)
    stall_s: float = 5.0  # how long an injected stall spins
    max_faults_per_point: int = 2

    def plan(self, index: int, attempt: int) -> Optional[str]:
        """The fault injected at ``(index, attempt)``, or ``None``."""
        if attempt > self.max_faults_per_point:
            return None
        draw = _unit(self.seed, "exec", index, attempt)
        edge = 0.0
        for kind, rate in zip(EXEC_KINDS,
                              (self.crash, self.stall, self.error)):
            edge += rate
            if draw < edge:
                return kind
        return None

    def corrupts(self, index: int) -> bool:
        """Whether point ``index``'s cache entry gets corrupted."""
        return _unit(self.seed, "corrupt", index) < self.corrupt

    def perturb(self, index: int, attempt: int) -> None:
        """Act on the plan, inside the worker's timeout guard."""
        kind = self.plan(index, attempt)
        if kind is None:
            return
        if kind == "crash":
            if multiprocessing.parent_process() is not None:
                os._exit(CHAOS_EXIT_CODE)
            raise ChaosCrash(
                f"chaos: injected crash (point {index}, attempt {attempt})"
            )
        if kind == "stall":
            # A busy-wait, not time.sleep: interruptible both by SIGALRM
            # (delivered between bytecodes) and by the soft thread
            # deadline (PyThreadState_SetAsyncExc, same granularity).
            deadline = time.monotonic() + self.stall_s
            while time.monotonic() < deadline:
                pass
            return
        raise ChaosError(
            f"chaos: injected transient error "
            f"(point {index}, attempt {attempt})"
        )

    def corrupt_entry(self, path: os.PathLike) -> str:
        """Corrupt the file at ``path`` deterministically.

        Truncation models a kill mid-write on a non-atomic filesystem;
        a bit flip models silent media/transfer corruption that still
        parses as JSON and is only caught by the entry checksum.
        """
        path = pathlib.Path(path)
        data = path.read_bytes()
        if len(data) < 8 or _unit(self.seed, "mode", path.name) < 0.5:
            path.write_bytes(data[: len(data) // 2])
            return "truncate"
        position = len(data) // 2
        flipped = bytes([data[position] ^ 0x20])
        path.write_bytes(data[:position] + flipped + data[position + 1:])
        return "bitflip"

    def planned(self, total_points: int) -> Dict[str, int]:
        """First-attempt injection counts over a grid of ``total_points``.

        First attempts always execute, so these injections are certain;
        later-attempt plans only fire if the point is retried.
        """
        counts: Dict[str, int] = {}
        for index in range(total_points):
            kind = self.plan(index, 1)
            if kind is not None:
                counts[kind] = counts.get(kind, 0) + 1
            if self.corrupts(index):
                counts["corrupt"] = counts.get("corrupt", 0) + 1
        return counts


def ensure_coverage(
    seed: int,
    total_points: int,
    require: Sequence[str] = ("crash", "stall", "corrupt"),
    attempts: int = 256,
    **rates: float,
) -> ChaosPolicy:
    """The first policy at ``seed, seed+1, ...`` planning every required kind.

    A soak that must witness at least one crash, one timeout and one
    corrupted entry cannot rely on raw rates over a small grid; this
    walks seeds deterministically until the first-attempt plan covers
    ``require``.
    """
    for offset in range(attempts):
        policy = ChaosPolicy(seed=seed + offset, **rates)
        planned = policy.planned(total_points)
        if all(planned.get(kind, 0) > 0 for kind in require):
            return policy
    raise RuntimeError(
        f"no chaos seed in [{seed}, {seed + attempts}) plans all of "
        f"{tuple(require)} over {total_points} points; raise the rates"
    )


@dataclass
class SoakOutcome:
    """One soak iteration's verdict and accounting."""

    converged: bool
    policy: ChaosPolicy
    planned: Dict[str, int]
    injected: Dict[str, int]
    healed_corruptions: int
    problems: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "CONVERGED" if self.converged else "DIVERGED"
        injected = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.injected.items())
        ) or "none"
        lines = [
            f"{verdict}: chaos seed {self.policy.seed}, "
            f"injected {injected}, "
            f"{self.healed_corruptions} corrupted entr"
            f"{'y' if self.healed_corruptions == 1 else 'ies'} "
            f"detected and healed",
        ]
        lines.extend(f"  PROBLEM: {problem}" for problem in self.problems)
        return "\n".join(lines)


def run_soak(
    workers: int = 2,
    chaos_seed: int = 0,
    sizes: Sequence[int] = (8, 16, 32, 64),
    seeds: Sequence[int] = (0, 1, 2, 3),
    timeout: float = 2.0,
    retries: int = 8,
    cache_dir: Optional[os.PathLike] = None,
    crash: float = 0.15,
    stall: float = 0.10,
    error: float = 0.10,
    corrupt: float = 0.25,
    log: Optional[Callable[[str], None]] = None,
) -> SoakOutcome:
    """One chaos soak iteration; asserts the engine converges under fire.

    Three passes over the same grid:

    1. fault-free serial baseline (:func:`repro.experiments.run_sweep`);
    2. chaos-injected parallel pass — crashes, stalls, transient errors
       during execution, plus corruption of freshly written cache
       entries;
    3. resume pass over the surviving cache — corrupted entries must be
       detected by checksum, recomputed, and healed.

    Convergence means passes 2 and 3 both produced points bit-identical
    to pass 1, nothing was quarantined, and every injected corruption
    was detected.  The grid and all draws derive from ``chaos_seed``,
    so a failure reproduces exactly.  ``workers`` applies to pass 2:
    more than one runs it on a process pool, which injected crashes
    kill and the engine must rebuild.
    """
    from repro.core import AlgorithmX
    from repro.experiments.parallel import run_sweep_parallel
    from repro.experiments.runner import run_sweep
    from repro.experiments.spec import SweepSpec

    def emit(line: str) -> None:
        if log is not None:
            log(line)

    spec = SweepSpec(
        name="chaos-soak",
        algorithm=AlgorithmX,
        sizes=tuple(sizes),
        processors=lambda n: max(2, n // 4),
        adversary=SOAK_ADVERSARY,
        seeds=tuple(seeds),
        max_ticks=200_000,
    )
    total = len(list(spec.points()))
    policy = ensure_coverage(
        chaos_seed, total,
        crash=crash, stall=stall, error=error, corrupt=corrupt,
        stall_s=max(4.0 * timeout, 2.0),
    )
    planned = policy.planned(total)
    emit(f"grid: {total} points; chaos seed {policy.seed}; "
         f"planned first-attempt injections: {planned}")

    serial = run_sweep(spec)

    owns_cache_dir = cache_dir is None
    root = pathlib.Path(
        tempfile.mkdtemp(prefix="repro-chaos-") if owns_cache_dir
        else cache_dir
    )
    problems: List[str] = []
    try:
        stormy = run_sweep_parallel(
            spec, workers=workers, cache_dir=root,
            timeout=timeout, retries=retries, chaos=policy,
            backoff_base=0.01, backoff_cap=0.25,
        )
        emit(f"chaos pass: {stormy.stats.executed} executed, "
             f"{stormy.stats.retries} retries, "
             f"{stormy.stats.pool_restarts} pool restarts, "
             f"injected {stormy.stats.injected}")
        if stormy.failures:
            problems.append(
                f"chaos pass quarantined {len(stormy.failures)} point(s): "
                + ", ".join(
                    f"(N={f.n}, P={f.p}, seed={f.seed}, {f.kind})"
                    for f in stormy.failures
                )
            )
        if stormy.points != serial.points:
            problems.append(
                "chaos pass diverged from the fault-free serial baseline"
            )
        for kind in ("crash", "stall", "error", "corrupt"):
            if planned.get(kind, 0) > stormy.stats.injected.get(kind, 0):
                problems.append(
                    f"stats under-report injected {kind} faults: planned "
                    f">= {planned[kind]}, recorded "
                    f"{stormy.stats.injected.get(kind, 0)}"
                )

        healed = run_sweep_parallel(spec, workers=1, cache_dir=root)
        injected_corrupt = stormy.stats.injected.get("corrupt", 0)
        emit(f"resume pass: {healed.stats.cache_hits} cache hits, "
             f"{healed.stats.cache_corrupt} corrupted entries detected, "
             f"{healed.stats.executed} recomputed")
        if healed.points != serial.points:
            problems.append(
                "resume pass diverged from the fault-free serial baseline"
            )
        if healed.stats.cache_corrupt != injected_corrupt:
            problems.append(
                f"corruption detection mismatch: injected "
                f"{injected_corrupt}, detected {healed.stats.cache_corrupt}"
            )
        if healed.stats.executed != injected_corrupt:
            problems.append(
                f"resume recomputed {healed.stats.executed} points, "
                f"expected exactly the {injected_corrupt} corrupted one(s)"
            )
        return SoakOutcome(
            converged=not problems,
            policy=policy,
            planned=planned,
            injected=dict(stormy.stats.injected),
            healed_corruptions=healed.stats.cache_corrupt,
            problems=problems,
        )
    finally:
        if owns_cache_dir:
            shutil.rmtree(root, ignore_errors=True)


def run_soak_series(
    iterations: int = 1,
    chaos_seed: int = 0,
    log: Optional[Callable[[str], None]] = None,
    **kwargs,
) -> Tuple[bool, List[SoakOutcome]]:
    """Run ``iterations`` soaks on well-separated seeds; True iff all pass."""
    outcomes: List[SoakOutcome] = []
    for iteration in range(iterations):
        if log is not None and iterations > 1:
            log(f"--- soak iteration {iteration + 1}/{iterations} ---")
        outcomes.append(run_soak(
            chaos_seed=chaos_seed + 1000 * iteration, log=log, **kwargs,
        ))
        if log is not None:
            log(outcomes[-1].summary())
    return all(outcome.converged for outcome in outcomes), outcomes
