"""The parallel sweep engine.

Runs a :class:`~repro.experiments.spec.SweepSpec` grid — or a batch of
them, as one run — inline (``workers <= 1``) or on one local process
pool (:class:`~repro.experiments.backends.PoolBackend`,
``workers > 1``), with

* **determinism** — each point seeds its own adversary exactly as the
  serial runner does, and results are reassembled in sweep order, so
  the output is bit-identical to :func:`repro.experiments.run_sweep`
  for any worker count;
* **caching / checkpointing** — completed points are written to a
  :class:`~repro.experiments.cache.ResultCache` as they finish; a
  re-run (or a resumed interrupted run) executes only the missing
  points;
* **timeout + retry** — a per-point wall-clock timeout (SIGALRM-based
  on the main thread, a soft ``threading.Timer`` deadline elsewhere)
  turns a pathological point into a recorded :class:`PointFailure`
  after ``retries`` extra attempts, instead of hanging the sweep;
* **crash recovery** — a dead worker (``BrokenProcessPool``) does not
  abort the sweep: the attempts inside the broken pool (at most two per
  worker) are charged one ``"crash"`` attempt each and resubmitted to a
  fresh pool after a capped, seeded-jitter
  exponential backoff; a point that keeps killing workers is
  quarantined as a :class:`PointFailure` after its retries, and a pool
  that keeps dying degrades the run to inline execution;
* **fault injection (opt-in)** — a
  :class:`~repro.experiments.chaos.ChaosPolicy` injects deterministic
  crashes/stalls/errors/cache corruption for soak-testing the recovery
  paths; ``chaos=None`` (the default) leaves every hot path untouched.

``workers <= 1`` executes inline (no subprocesses, no pickling
requirement), which is both the fast path for small sweeps and the
hook tests use to count executions.  ``workers > 1`` requires the
spec's ``algorithm`` and ``runner`` to be picklable (module-level
classes or ``functools.partial``); its adversary is a registry spec,
which always is.  The worker count is the only choice: scheduling and
accounting are the same inline and on the pool, and both reassemble in
sweep order, so results are bit-identical for any count.
"""

from __future__ import annotations

import collections
import ctypes
import pickle
import signal
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.runner import measure_write_all
from repro.experiments.backends.local import Attempt, PoolBackend
from repro.experiments.cache import ResultCache, point_key
from repro.experiments.chaos import ChaosCrash, ChaosPolicy
from repro.experiments.runner import RunPoint, SweepResult, run_one_point
from repro.experiments.spec import SweepSpec
from repro.faults.registry import AdversarySpec

#: Outcome statuses a worker can report (``crash`` is synthesized by
#: the engine when the worker died without reporting, and by the inline
#: path for injected crashes).
_OK, _TIMEOUT, _ERROR, _CRASH = "ok", "timeout", "error", "crash"

#: Settled points between two ``progress`` lines.
PROGRESS_EVERY = 25


@dataclass(frozen=True)
class PointSpec:
    """One picklable (N, P, seed) cell of a sweep grid."""

    sweep: str
    index: int  # position in sweep order; results reassemble by it
    algorithm: Callable
    n: int
    p: int
    seed: int
    adversary: Optional[AdversarySpec]
    max_ticks: Optional[int]
    fairness_window: Optional[int]
    lane: str = "fast"
    #: Optional substitute for ``measure_write_all`` (same signature).
    #: Cache-key material — it changes what the point measures.
    runner: Optional[Callable] = None

    def cache_key(self) -> str:
        return point_key(
            self.sweep, self.algorithm, self.n, self.p, self.seed,
            self.adversary, self.max_ticks, self.fairness_window,
            lane=self.lane, runner=self.runner,
        )


@dataclass(frozen=True)
class PointFailure:
    """A point that exhausted its attempts and was quarantined.

    ``kind`` is ``"timeout"`` (deadline), ``"error"`` (exception inside
    the point) or ``"crash"`` (the worker process died).  Quarantine is
    per point: the rest of the sweep completes normally.
    """

    index: int
    n: int
    p: int
    seed: int
    kind: str  # "timeout" | "error" | "crash"
    attempts: int
    message: str


@dataclass(frozen=True)
class PointMeta:
    """Provenance of one successful point, aligned with ``points``."""

    index: int
    elapsed_s: float
    cached: bool
    attempts: int


@dataclass
class SweepStats:
    """Execution accounting for one sweep of an engine run.

    Every recovery event leaves a trace here so it cannot vanish from
    the ``BENCH_*.json`` artifact: per-attempt ``retries``/``timeouts``/
    ``crashes``, quarantined points (``failed``), pool restarts, the
    degraded-serial flag, corrupted cache entries detected on load, and
    (opt-in) the chaos faults injected by kind.  The pool counters
    (``pool_restarts`` and ``degraded_serial``) describe the whole run;
    a batch records them on its first sweep only, so sums over a
    batch's sweeps count each once.
    """

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    timeouts: int = 0
    retries: int = 0
    failed: int = 0
    crashes: int = 0
    pool_restarts: int = 0
    degraded_serial: bool = False
    cache_corrupt: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    #: Seconds from the run's start until this sweep's last point settled.
    wall_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


@dataclass
class EtaEstimator:
    """The ETA of an engine run's ``progress`` lines.

    Feeds on the per-point wall times the engine settles: a running
    mean over *executed* points (cache hits complete instantly and
    would poison the mean), times the work still outstanding.
    :meth:`render` is the line the engine feeds its ``progress``
    callback (``repro sweep`` prints it as ``[sweep]``).
    """

    total: int
    completed: int = 0
    executed: int = 0
    wall_sum: float = 0.0

    def observe(self, elapsed_s: float, cached: bool = False) -> None:
        self.completed += 1
        if not cached:
            self.executed += 1
            self.wall_sum += elapsed_s

    @property
    def mean_point_s(self) -> Optional[float]:
        return self.wall_sum / self.executed if self.executed else None

    @property
    def eta_s(self) -> Optional[float]:
        mean = self.mean_point_s
        if mean is None:
            return None
        return mean * max(0, self.total - self.completed)

    def render(self) -> str:
        mean, eta = self.mean_point_s, self.eta_s
        if mean is None:
            return f"{self.completed}/{self.total} points"
        return (
            f"{self.completed}/{self.total} points, "
            f"mean {mean:.3f}s/point, eta ~{eta:.0f}s"
        )


@dataclass
class ParallelSweepResult(SweepResult):
    """A :class:`SweepResult` plus the engine's accounting.

    ``points`` contains only the successful points (in sweep order);
    ``failures`` records the rest.  ``meta`` is aligned with ``points``.
    """

    stats: SweepStats = field(default_factory=SweepStats)
    failures: List[PointFailure] = field(default_factory=list)
    meta: List[PointMeta] = field(default_factory=list)


def expand_spec(spec: SweepSpec) -> List[PointSpec]:
    """Flatten a sweep grid into indexed, picklable point specs."""
    return [
        PointSpec(
            sweep=spec.name, index=index, algorithm=spec.algorithm,
            n=n, p=p, seed=seed, adversary=spec.adversary,
            max_ticks=spec.max_ticks,
            fairness_window=spec.fairness_window,
            lane=spec.lane,
            runner=getattr(spec, "runner", None),
        )
        for index, (n, p, seed) in enumerate(spec.points())
    ]


class PointTimeout(Exception):
    """Raised inside a worker when a point exceeds its wall budget."""


class _alarm:
    """Wall-clock guard around one point execution.

    On the main thread (with SIGALRM available) this is the classic
    ``setitimer`` guard: Python-level timeouts cannot preempt a stuck C
    call, but every hot loop in this simulator is pure Python, where a
    pending SIGALRM is delivered between bytecodes.

    Off the main thread — or on platforms without SIGALRM — ``signal``
    is unusable, so the guard degrades to a *soft deadline*: a
    ``threading.Timer`` that async-raises :class:`PointTimeout` in the
    guarded thread via ``PyThreadState_SetAsyncExc`` (same
    between-bytecodes granularity, still cannot preempt C calls).  A
    one-time ``RuntimeWarning`` records the degradation.  Entering the
    guard with a positive budget never raises (the engine rejects any
    other budget before it submits a point).
    """

    _soft_warned = False

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self.armed = False
        self._soft_timer: Optional[threading.Timer] = None

    def __enter__(self):
        if self.seconds is None:
            return self
        on_main = threading.current_thread() is threading.main_thread()
        if not on_main or not hasattr(signal, "SIGALRM"):
            self._arm_soft()
            return self
        try:
            self._previous = signal.signal(signal.SIGALRM, self._fire)
            # setitimer returns the timer it displaced; an enclosing
            # _alarm (or any other SIGALRM user) may have one running,
            # and unconditionally zeroing it on exit would silently
            # disarm the outer guard.
            self._old_delay, self._old_interval = signal.setitimer(
                signal.ITIMER_REAL, self.seconds
            )
            self._entered_at = time.monotonic()
            self.armed = True
        except ValueError:
            # signal refused the thread after all — soft deadline.
            self._arm_soft()
        return self

    def __exit__(self, *exc_info):
        if self._soft_timer is not None:
            with self._soft_lock:
                self._soft_armed = False
            self._soft_timer.cancel()
            return False
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            # Restore the handler before re-arming the outer timer so a
            # late firing cannot land on this guard's handler.
            signal.signal(signal.SIGALRM, self._previous)
            if self._old_delay > 0.0:
                elapsed = time.monotonic() - self._entered_at
                remaining = max(self._old_delay - elapsed, 1e-6)
                signal.setitimer(
                    signal.ITIMER_REAL, remaining, self._old_interval
                )
        return False

    def _arm_soft(self) -> None:
        if not _alarm._soft_warned:
            warnings.warn(
                "per-point timeout entered off the main thread: SIGALRM "
                "is unavailable, enforcing a soft threading.Timer "
                "deadline instead (cannot preempt stuck C calls)",
                RuntimeWarning,
                stacklevel=3,
            )
            _alarm._soft_warned = True
        self._soft_lock = threading.Lock()
        self._soft_target = threading.get_ident()
        self._soft_armed = True
        self._soft_timer = threading.Timer(self.seconds, self._soft_fire)
        self._soft_timer.daemon = True
        self._soft_timer.start()

    def _soft_fire(self) -> None:
        with self._soft_lock:
            if not self._soft_armed:
                return
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(self._soft_target),
                ctypes.py_object(PointTimeout),
            )

    @staticmethod
    def _fire(signum, frame):
        raise PointTimeout()


def execute_point(
    point: PointSpec,
    timeout: Optional[float] = None,
    chaos: Optional[ChaosPolicy] = None,
    attempt: int = 1,
) -> Tuple[str, object, float]:
    """Run one point; never raises for timeout/algorithm errors.

    Returns ``(status, payload, elapsed_s)`` where payload is the
    :class:`RunPoint` on success and a diagnostic string otherwise.
    This is the top-level function worker processes execute.  With a
    chaos policy, the injected fault for ``(point.index, attempt)``
    fires before the computation — an injected worker crash never
    returns at all (``os._exit``), which the engine observes as a
    broken pool.
    """
    started = time.perf_counter()
    try:
        with _alarm(timeout):
            if chaos is not None:
                chaos.perturb(point.index, attempt)
            # measure_write_all is looked up in this module, the seam
            # tests patch to stall or fail an engine attempt.
            run_point = run_one_point(
                point, point.n, point.p, point.seed, measure_write_all
            )
    except PointTimeout:
        return _TIMEOUT, f"exceeded {timeout:.3f}s", \
            time.perf_counter() - started
    except ChaosCrash as exc:
        return _CRASH, str(exc), time.perf_counter() - started
    except Exception:
        return _ERROR, traceback.format_exc(limit=8), \
            time.perf_counter() - started
    elapsed = time.perf_counter() - started
    return _OK, run_point, elapsed


def run_inline(point: PointSpec, attempt: int, timeout: Optional[float],
               chaos: Optional[ChaosPolicy]) -> Attempt:
    """One attempt in this process, as the pool reports it.

    ``execute_point`` is looked up here at call time, the seam tests
    patch; without chaos it is called as ``execute_point(point,
    timeout)``.
    """
    if chaos is None:
        return (point, attempt) + execute_point(point, timeout)
    return (point, attempt) + execute_point(point, timeout, chaos, attempt)


def _check_picklable(point: PointSpec) -> None:
    try:
        pickle.dumps((point.algorithm, point.runner))
    except Exception as exc:
        raise TypeError(
            "parallel sweeps need a picklable algorithm and runner "
            "(module-level classes or functools.partial — not "
            f"lambdas); got: {exc}"
        ) from None


@dataclass
class _Sweep:
    """One spec's share of an engine run: its points and accounting."""

    spec: SweepSpec
    points: List[PointSpec]
    stats: SweepStats
    results: Dict[int, RunPoint] = field(default_factory=dict)
    metas: Dict[int, PointMeta] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)

    @classmethod
    def of(cls, spec: SweepSpec) -> "_Sweep":
        points = expand_spec(spec)
        return cls(spec, points, SweepStats(total=len(points)))

    def settled(self) -> bool:
        return len(self.results) + len(self.failures) == len(self.points)

    def result(self) -> ParallelSweepResult:
        self.failures.sort(key=lambda failure: failure.index)
        return ParallelSweepResult(
            spec=self.spec,
            points=[self.results[point.index] for point in self.points
                    if point.index in self.results],
            stats=self.stats,
            failures=self.failures,
            meta=[self.metas[point.index] for point in self.points
                  if point.index in self.metas],
        )


def run_sweep_parallel(
    spec: Union[SweepSpec, Sequence[SweepSpec]],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[str] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    chaos: Optional[ChaosPolicy] = None,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    progress: Optional[Callable[[str], None]] = None,
) -> Union[ParallelSweepResult, List[ParallelSweepResult]]:
    """Execute ``spec`` through the parallel engine.

    ``spec`` is one :class:`SweepSpec` (returns one result) or a list
    or tuple of them (returns one result per spec, in order).  A batch
    is one engine run: every point of every spec is looked up in the
    cache once, every miss goes to one pool (or runs inline), and the
    results are reassembled per sweep.  A point whose cache key an
    earlier sweep of the batch has pending is held until that copy
    settles and only then looked up, so a batch executes exactly the
    points that sequential calls on the same cache would.

    Args:
        workers: process count; ``None`` or ``<= 1`` executes inline,
            more runs on one :class:`~repro.experiments.backends.PoolBackend`.
        cache / cache_dir: enable the on-disk result cache (pass either
            a :class:`ResultCache` or a directory path).
        resume: with a cache, load already-completed points instead of
            recomputing them.  ``False`` recomputes (and overwrites)
            every point while still writing the progress manifest.
        timeout: per-point wall-clock budget in seconds; must be
            positive (``None`` means no budget).
        retries: extra attempts a timed-out/crashed point gets before
            it is quarantined as a :class:`PointFailure`.
        chaos: opt-in deterministic fault injection
            (:class:`~repro.experiments.chaos.ChaosPolicy`); ``None``
            leaves the default path untouched.
        backoff_base / backoff_cap: capped exponential backoff between
            pool rebuilds, with seeded jitter
            (:data:`~repro.experiments.backends.local.BACKOFF_SEED`);
            the pool degrades to inline execution after
            :data:`~repro.experiments.backends.local.MAX_POOL_RESTARTS`
            rebuilds.
        progress: optional callable fed human-readable ETA lines
            (:class:`EtaEstimator` output) every
            :data:`PROGRESS_EVERY` settled points while the sweep runs.

    Where a point runs is not cache-key material: the same point
    computed inline or on the pool lands on the same content-hash
    entry.  Each result's ``stats`` account for its own sweep;
    ``wall_s`` is the seconds from the run's start until the sweep's
    last point settled.  The pool's counters (``pool_restarts`` and
    ``degraded_serial``) belong to the run, so a batch records them
    once, on its first sweep's stats.
    """
    if timeout is not None and timeout <= 0:
        # setitimer rejects a negative delay and reads zero as "disarm",
        # so neither could ever act as a budget.
        raise ValueError(f"timeout must be positive, got {timeout!r}")
    started = time.perf_counter()
    batch = isinstance(spec, (list, tuple))
    sweeps = [_Sweep.of(one) for one in (spec if batch else (spec,))]
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    owner = {id(point): sweep for sweep in sweeps for point in sweep.points}
    eta = EtaEstimator(total=len(owner))

    def settle(sweep: _Sweep, elapsed: float, cached: bool = False) -> None:
        eta.observe(elapsed, cached=cached)
        if sweep.settled():
            sweep.stats.wall_s = time.perf_counter() - started

    def lookup(sweep: _Sweep, point: PointSpec, key: str) -> bool:
        """Serve ``point`` from the cache; False on a miss."""
        corrupt_before = cache.corrupt_discarded
        cached = cache.load(point.sweep, key)
        sweep.stats.cache_corrupt += cache.corrupt_discarded - corrupt_before
        if cached is None:
            return False
        sweep.stats.cache_hits += 1
        sweep.results[point.index] = cached
        sweep.metas[point.index] = PointMeta(
            index=point.index, elapsed_s=0.0, cached=True, attempts=0,
        )
        settle(sweep, 0.0, cached=True)
        return True

    pending: List[PointSpec] = []
    #: Points waiting on an earlier sweep's pending copy of their key,
    #: by ``id`` of that copy: (sweep, point, key).
    held: Dict[int, List[Tuple[_Sweep, PointSpec, str]]] = {}
    if cache is not None and resume:
        first: Dict[str, Tuple[_Sweep, PointSpec]] = {}
        for sweep in sweeps:
            for point in sweep.points:
                key = point.cache_key()
                earlier = first.get(key)
                if earlier is not None and earlier[0] is not sweep:
                    held.setdefault(id(earlier[1]), []).append(
                        (sweep, point, key)
                    )
                elif not lookup(sweep, point, key):
                    first.setdefault(key, (sweep, point))
                    pending.append(point)
    else:
        pending = [point for sweep in sweeps for point in sweep.points]

    def note_injection(point: PointSpec, attempt: int) -> None:
        """Account the chaos fault scheduled for this dispatched attempt.

        The policy's plan is a pure function of (index, attempt), so the
        engine and the worker agree on what fires without a back-channel
        — which is the only way an ``os._exit`` crash can be counted.
        """
        if chaos is None:
            return
        kind = chaos.plan(point.index, attempt)
        if kind is not None:
            injected = owner[id(point)].stats.injected
            injected[kind] = injected.get(kind, 0) + 1

    def record(sweep: _Sweep, point: PointSpec, status: str, payload,
               elapsed: float, attempt: int) -> bool:
        """Account one attempt; returns True when the point is settled."""
        stats = sweep.stats
        if status == _OK:
            stats.executed += 1
            sweep.results[point.index] = payload
            sweep.metas[point.index] = PointMeta(
                index=point.index, elapsed_s=elapsed, cached=False,
                attempts=attempt,
            )
            if cache is not None:
                key = point.cache_key()
                cache.store(point.sweep, key, payload, elapsed)
                if chaos is not None and chaos.corrupts(point.index):
                    chaos.corrupt_entry(cache.entry_path(point.sweep, key))
                    stats.injected["corrupt"] = (
                        stats.injected.get("corrupt", 0) + 1
                    )
            return True
        if status == _TIMEOUT:
            stats.timeouts += 1
        if status == _CRASH:
            stats.crashes += 1
        if attempt <= retries:
            stats.retries += 1
            return False
        stats.failed += 1
        sweep.failures.append(PointFailure(
            index=point.index, n=point.n, p=point.p, seed=point.seed,
            kind=status, attempts=attempt, message=str(payload),
        ))
        return True

    if pending:
        pool: Optional[PoolBackend] = None
        if workers is not None and workers > 1:
            # Every point of a spec shares its algorithm and runner, so
            # one point checks the whole spec.
            for sweep in sweeps:
                if not sweep.settled():
                    _check_picklable(sweep.points[0])
            pool = PoolBackend(
                workers, timeout=timeout, chaos=chaos,
                backoff_base=backoff_base, backoff_cap=backoff_cap,
            )
        inline: Deque[Tuple[PointSpec, int]] = collections.deque()

        def submit(point: PointSpec, attempt: int) -> None:
            note_injection(point, attempt)
            if pool is None:
                inline.append((point, attempt))
            else:
                pool.submit(point, attempt)

        def collect() -> List[Attempt]:
            if pool is None:
                # One attempt per call: a run killed mid-sweep leaves
                # every finished point's cache entry on disk.
                return [run_inline(*inline.popleft(), timeout, chaos)]
            return pool.collect()

        try:
            for point in pending:
                submit(point, 1)
            outstanding = len(pending)
            while outstanding:
                for point, attempt, status, payload, elapsed in collect():
                    sweep = owner[id(point)]
                    if not record(sweep, point, status, payload, elapsed,
                                  attempt):
                        submit(point, attempt + 1)
                        continue
                    settle(sweep, elapsed)
                    outstanding -= 1
                    # Copies held behind this point: look them up now,
                    # as a sequential run would, and submit the misses.
                    for later, duplicate, key in held.pop(id(point), ()):
                        if not lookup(later, duplicate, key):
                            submit(duplicate, 1)
                            outstanding += 1
                    if progress is not None and (
                        eta.completed % PROGRESS_EVERY == 0
                        or eta.completed == eta.total
                    ):
                        progress(eta.render())
            if pool is not None:
                run_stats = sweeps[0].stats
                run_stats.pool_restarts = pool.pool_restarts
                run_stats.degraded_serial = pool.degraded_serial
        finally:
            if pool is not None:
                pool.close()

    if cache is not None:
        # The progress manifest, once per sweep per run: the entries
        # written as points finish are what a resume reads.
        for sweep in sweeps:
            cache.write_checkpoint(
                sweep.spec.name, done=len(sweep.results),
                total=len(sweep.points),
            )
    results = [sweep.result() for sweep in sweeps]
    return results if batch else results[0]
