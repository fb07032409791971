"""The parallel sweep engine.

Fans a :class:`~repro.experiments.spec.SweepSpec` grid — or a batch of
them, as one run — out over an executor
:class:`~repro.experiments.backends.Backend` — inline (``serial``), a
local process pool (``pool``), or a remote worker fleet behind
``python -m repro serve`` (``remote:host:port``) — with

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
  that keeps dying degrades the run to serial in-process execution;
* **fault injection (opt-in)** — a
  :class:`~repro.experiments.chaos.ChaosPolicy` injects deterministic
  crashes/stalls/errors/cache corruption for soak-testing the recovery
  paths; ``chaos=None`` (the default) leaves every hot path untouched.

``workers <= 1`` executes inline (no subprocesses, no pickling
requirement), which is both the fast path for small sweeps and the
hook tests use to count executions.  ``workers > 1`` requires the
spec's ``algorithm`` and ``adversary`` to be picklable — use the
factories in :mod:`repro.experiments.factories`.  ``backend`` selects
the executor explicitly (``"serial"``, ``"pool"``,
``"remote:host:port"``, or a live Backend); results are bit-identical
across backends by construction — the engine's scheduling and
accounting are backend-agnostic, and every backend reassembles in
sweep order.
"""

from __future__ import annotations

import ctypes
import pickle
import signal
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.runner import measure_write_all
from repro.experiments.backends import Backend, resolve_backend
from repro.experiments.cache import ResultCache, point_key
from repro.experiments.chaos import ChaosCrash, ChaosPolicy
from repro.experiments.runner import RunPoint, SweepResult, run_one_point
from repro.experiments.spec import SweepSpec

#: Outcome statuses a worker can report (``crash`` is synthesized by
#: the engine when the worker died without reporting, and by the inline
#: path for injected crashes).
_OK, _TIMEOUT, _ERROR, _CRASH = "ok", "timeout", "error", "crash"


@dataclass(frozen=True)
class PointSpec:
    """One picklable (N, P, seed) cell of a sweep grid."""

    sweep: str
    index: int  # position in sweep order; results reassemble by it
    algorithm: Callable
    n: int
    p: int
    seed: int
    adversary: Optional[Callable]
    max_ticks: Optional[int]
    fairness_window: Optional[int]
    lane: str = "fast"
    #: Minimum wall seconds one execution takes (0 = off).  The point
    #: sleeps out any remainder after computing.  Model-invisible, so
    #: it is *not* cache-key material: it exists to give the fabric
    #: benchmarks a calibrated latency-bound workload — dispatch
    #: concurrency measured on any host, including a one-core CI
    #: runner where CPU-bound points cannot overlap.
    point_floor_s: float = 0.0
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
    (opt-in) the chaos faults injected by kind.  The backend counters
    (``pool_restarts``, ``degraded_serial``, ``requeues`` and the
    server-healed part of ``cache_corrupt``) describe the whole run; a
    batch records them on its first sweep only, so sums over a batch's
    sweeps count each once.
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
    #: Leases the remote fabric re-queued past dead/stalled workers
    #: (0 for local backends, which have no lease scheduler).
    requeues: int = 0
    #: Running mean wall seconds per executed point (``None`` when the
    #: run executed nothing) — the ETA estimator's final reading.
    mean_point_s: Optional[float] = None

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def quarantined(self) -> int:
        """Points recorded as :class:`PointFailure` (alias of ``failed``)."""
        return self.failed


@dataclass
class EtaEstimator:
    """SweepStats-driven ETA for long sweeps.

    Feeds on the same per-point wall times the engine already accounts
    into :class:`SweepStats`: a running mean over *executed* points
    (cache hits complete instantly and would poison the mean), times
    the work still outstanding.  The serve daemon keeps one of these
    per fleet and surfaces it on the status endpoint.
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
            point_floor_s=getattr(spec, "point_floor_s", 0.0),
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
    guard never raises.
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
            floor = getattr(point, "point_floor_s", 0.0)
            if floor > 0.0:
                remaining = floor - (time.perf_counter() - started)
                if remaining > 0.0:
                    # Sleep is interruptible by the timeout guard, so a
                    # floor larger than the budget still times out.
                    time.sleep(remaining)
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


def _check_picklable(point: PointSpec) -> None:
    try:
        pickle.dumps((point.algorithm, point.adversary))
    except Exception as exc:
        raise TypeError(
            "parallel sweeps need picklable algorithm/adversary specs "
            "(module-level classes, functools.partial, or the factories "
            "in repro.experiments.factories — not lambdas); "
            f"got: {exc}"
        ) from None


@dataclass
class _Sweep:
    """One spec's share of an engine run: its points and accounting."""

    spec: SweepSpec
    points: List[PointSpec]
    stats: SweepStats
    eta: EtaEstimator
    results: Dict[int, RunPoint] = field(default_factory=dict)
    metas: Dict[int, PointMeta] = field(default_factory=dict)
    failures: List[PointFailure] = field(default_factory=list)

    @classmethod
    def of(cls, spec: SweepSpec) -> "_Sweep":
        points = expand_spec(spec)
        return cls(spec, points, SweepStats(total=len(points)),
                   EtaEstimator(total=len(points)))

    def settled(self) -> bool:
        return len(self.results) + len(self.failures) == len(self.points)

    def result(self) -> ParallelSweepResult:
        self.failures.sort(key=lambda failure: failure.index)
        self.stats.mean_point_s = self.eta.mean_point_s
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
    max_pool_restarts: int = 3,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    backoff_seed: int = 0,
    backend: Optional[Union[str, Backend]] = None,
    progress: Optional[Callable[[str], None]] = None,
    progress_every: int = 25,
) -> Union[ParallelSweepResult, List[ParallelSweepResult]]:
    """Execute ``spec`` through the parallel engine.

    ``spec`` is one :class:`SweepSpec` (returns one result) or a list
    or tuple of them (returns one result per spec, in order).  A batch
    is one engine run: every point of every spec is looked up in the
    cache once, every miss goes to one backend, and the results are
    reassembled per sweep.  A point whose cache key an earlier sweep of
    the batch has pending is held until that copy settles and only then
    looked up, so a batch executes exactly the points that sequential
    calls on the same cache would.

    Args:
        workers: process count; ``None`` or ``<= 1`` executes inline.
        cache / cache_dir: enable the on-disk result cache (pass either
            a :class:`ResultCache` or a directory path).
        resume: with a cache, load already-completed points instead of
            recomputing them.  ``False`` recomputes (and overwrites)
            every point while still writing the progress manifest.
        timeout: per-point wall-clock budget in seconds.
        retries: extra attempts a timed-out/crashed point gets before
            it is quarantined as a :class:`PointFailure`.
        chaos: opt-in deterministic fault injection
            (:class:`~repro.experiments.chaos.ChaosPolicy`); ``None``
            leaves the default path untouched.
        max_pool_restarts: broken-pool rebuilds before the run degrades
            to serial in-process execution for the remaining points.
        backoff_base / backoff_cap / backoff_seed: capped exponential
            backoff between pool rebuilds, with deterministic jitter
            drawn from ``random.Random(backoff_seed)``.
        backend: where attempts execute — ``None`` keeps the legacy
            mapping (``workers <= 1`` is serial in-process, more is a
            local process pool), or pass ``"serial"``, ``"pool"``,
            ``"remote:host:port"`` (a ``python -m repro serve``
            daemon), or an already-built
            :class:`~repro.experiments.backends.Backend`.  Falls back
            to the (first) spec's ``backend`` when it carries one.  The
            backend is *not* cache-key material: the same point
            computed anywhere lands on the same content-hash entry.
        progress: optional callable fed human-readable ETA lines
            (:class:`EtaEstimator` output) while the sweep runs.
        progress_every: emit a progress line every N settled points.

    Each result's ``stats`` account for its own sweep; ``wall_s`` is
    the seconds from the run's start until the sweep's last point
    settled.  The backend's counters (``pool_restarts``,
    ``degraded_serial``, ``requeues`` and the corrupt entries a serve
    daemon healed) belong to the run, so a batch records them once, on
    its first sweep's stats.
    """
    started = time.perf_counter()
    batch = isinstance(spec, (list, tuple))
    sweeps = [_Sweep.of(one) for one in (spec if batch else (spec,))]
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    owner = {id(point): sweep for sweep in sweeps for point in sweep.points}
    eta = EtaEstimator(total=len(owner))

    def settle(sweep: _Sweep, elapsed: float, cached: bool = False) -> None:
        eta.observe(elapsed, cached=cached)
        sweep.eta.observe(elapsed, cached=cached)
        if sweep.settled():
            sweep.stats.wall_s = time.perf_counter() - started

    def hit(sweep: _Sweep, point: PointSpec, payload: RunPoint) -> None:
        sweep.stats.cache_hits += 1
        sweep.results[point.index] = payload
        sweep.metas[point.index] = PointMeta(
            index=point.index, elapsed_s=0.0, cached=True, attempts=0,
        )
        settle(sweep, 0.0, cached=True)

    def lookup(sweep: _Sweep, point: PointSpec, key: str) -> bool:
        """Serve ``point`` from the cache; False on a miss."""
        corrupt_before = cache.corrupt_discarded
        cached = cache.load(point.sweep, key)
        sweep.stats.cache_corrupt += cache.corrupt_discarded - corrupt_before
        if cached is None:
            return False
        hit(sweep, point, cached)
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
               elapsed: float, attempt: int, stored: bool = False) -> bool:
        """Account one attempt; returns True when the point is settled.

        ``stored`` marks results the backend already persisted (the
        serve daemon's shared store); the engine then only accounts the
        chaos corruption the server applied instead of writing locally.
        """
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
            elif stored and chaos is not None and chaos.corrupts(point.index):
                # The server stored this entry and (same pure draw)
                # corrupted it; count the injection on the client so
                # the soak's books balance without a back-channel.
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
        requested = backend if backend is not None else \
            getattr(sweeps[0].spec, "backend", None)
        engine, owns = resolve_backend(
            requested, workers=workers, timeout=timeout, chaos=chaos,
            resume=resume, max_pool_restarts=max_pool_restarts,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
            backoff_seed=backoff_seed,
        )
        try:
            if engine.capabilities.requires_picklable:
                # Every point of a spec shares its algorithm and
                # adversary, so one point checks the whole spec.
                for sweep in sweeps:
                    if not sweep.settled():
                        _check_picklable(sweep.points[0])
            for point in pending:
                note_injection(point, 1)
                engine.submit(point, 1)
            outstanding = len(pending)
            step = max(1, progress_every)
            while outstanding:
                for res in engine.collect():
                    point = res.point
                    sweep = owner[id(point)]
                    if res.cached:
                        # The serve daemon answered from its shared
                        # content-addressed store: a global cache hit.
                        hit(sweep, point, res.payload)
                    elif record(sweep, point, res.status, res.payload,
                                res.elapsed, res.attempt,
                                stored=res.stored):
                        settle(sweep, res.elapsed)
                    else:
                        note_injection(point, res.attempt + 1)
                        engine.submit(point, res.attempt + 1)
                        continue
                    outstanding -= 1
                    # Copies held behind this point: look them up now,
                    # as a sequential run would, and submit the misses.
                    for later, duplicate, key in held.pop(id(point), ()):
                        if not lookup(later, duplicate, key):
                            note_injection(duplicate, 1)
                            engine.submit(duplicate, 1)
                            outstanding += 1
                    if progress is not None and (
                        eta.completed % step == 0
                        or eta.completed == eta.total
                    ):
                        progress(eta.render())
            run_stats = sweeps[0].stats
            run_stats.pool_restarts = getattr(engine, "pool_restarts", 0)
            run_stats.degraded_serial = getattr(
                engine, "degraded_serial", False
            )
            run_stats.requeues = getattr(engine, "requeues", 0)
            # Corrupt entries the server's shared store healed for us.
            run_stats.cache_corrupt += getattr(engine, "cache_corrupt", 0)
        finally:
            if owns:
                engine.close()

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
