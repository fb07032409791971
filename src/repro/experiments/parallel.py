"""The parallel sweep engine.

Fans a :class:`~repro.experiments.spec.SweepSpec` grid out over an
executor :class:`~repro.experiments.backends.Backend` — inline
(``serial``), a local process pool (``pool``), or a remote worker
fleet behind ``python -m repro serve`` (``remote:host:port``) — with

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
  abort the sweep: in-flight points are charged one ``"crash"`` attempt
  and resubmitted to a fresh pool after a capped, seeded-jitter
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
from typing import Callable, Dict, List, Optional, Tuple, Union

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
    """Execution accounting for one engine run.

    Every recovery event leaves a trace here so it cannot vanish from
    the ``BENCH_*.json`` artifact: per-attempt ``retries``/``timeouts``/
    ``crashes``, quarantined points (``failed``), pool restarts, the
    degraded-serial flag, corrupted cache entries detected on load, and
    (opt-in) the chaos faults injected by kind.
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


def run_sweep_parallel(
    spec: SweepSpec,
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
) -> ParallelSweepResult:
    """Execute ``spec`` through the parallel engine.

    Args:
        workers: process count; ``None`` or ``<= 1`` executes inline.
        cache / cache_dir: enable the on-disk result cache (pass either
            a :class:`ResultCache` or a directory path).
        resume: with a cache, load already-completed points instead of
            recomputing them.  ``False`` recomputes (and overwrites)
            every point while still checkpointing progress.
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
            to ``spec.backend`` when the spec carries one.  The backend
            is *not* cache-key material: the same point computed
            anywhere lands on the same content-hash entry.
        progress: optional callable fed human-readable ETA lines
            (:class:`EtaEstimator` output) while the sweep runs.
        progress_every: emit a progress line every N settled points.
    """
    started = time.perf_counter()
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    corrupt_before = cache.corrupt_discarded if cache is not None else 0
    points = expand_spec(spec)
    stats = SweepStats(total=len(points))
    results: Dict[int, RunPoint] = {}
    metas: Dict[int, PointMeta] = {}
    failures: List[PointFailure] = []

    eta = EtaEstimator(total=len(points))
    pending: List[PointSpec] = []
    for point in points:
        cached = (
            cache.load(point.sweep, point.cache_key())
            if cache is not None and resume else None
        )
        if cached is not None:
            stats.cache_hits += 1
            results[point.index] = cached
            metas[point.index] = PointMeta(
                index=point.index, elapsed_s=0.0, cached=True, attempts=0,
            )
            eta.observe(0.0, cached=True)
        else:
            pending.append(point)

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
            stats.injected[kind] = stats.injected.get(kind, 0) + 1

    def record(point: PointSpec, status: str, payload, elapsed: float,
               attempt: int, stored: bool = False) -> bool:
        """Account one attempt; returns True when the point is settled.

        ``stored`` marks results the backend already persisted (the
        serve daemon's shared store); the engine then only accounts the
        chaos corruption the server applied instead of writing locally.
        """
        if status == _OK:
            stats.executed += 1
            results[point.index] = payload
            metas[point.index] = PointMeta(
                index=point.index, elapsed_s=elapsed, cached=False,
                attempts=attempt,
            )
            if cache is not None:
                cache.store(point.sweep, point.cache_key(), payload, elapsed)
                if chaos is not None and chaos.corrupts(point.index):
                    chaos.corrupt_entry(
                        cache.entry_path(point.sweep, point.cache_key())
                    )
                    stats.injected["corrupt"] = (
                        stats.injected.get("corrupt", 0) + 1
                    )
                cache.write_checkpoint(
                    spec.name, done=len(results), total=len(points)
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
        failures.append(PointFailure(
            index=point.index, n=point.n, p=point.p, seed=point.seed,
            kind=status, attempts=attempt, message=str(payload),
        ))
        return True

    backend_corrupt = 0
    if pending:
        requested = backend if backend is not None else \
            getattr(spec, "backend", None)
        engine, owns = resolve_backend(
            requested, workers=workers, timeout=timeout, chaos=chaos,
            resume=resume, max_pool_restarts=max_pool_restarts,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
            backoff_seed=backoff_seed,
        )
        try:
            if engine.capabilities.requires_picklable:
                _check_picklable(pending[0])
            outstanding = 0
            for point in pending:
                note_injection(point, 1)
                engine.submit(point, 1)
                outstanding += 1
            step = max(1, progress_every)
            while outstanding:
                for res in engine.collect():
                    if res.cached:
                        # The serve daemon answered from its shared
                        # content-addressed store: a global cache hit.
                        outstanding -= 1
                        stats.cache_hits += 1
                        results[res.point.index] = res.payload
                        metas[res.point.index] = PointMeta(
                            index=res.point.index, elapsed_s=0.0,
                            cached=True, attempts=0,
                        )
                        eta.observe(0.0, cached=True)
                    elif record(res.point, res.status, res.payload,
                                res.elapsed, res.attempt,
                                stored=res.stored):
                        outstanding -= 1
                        eta.observe(res.elapsed)
                    else:
                        note_injection(res.point, res.attempt + 1)
                        engine.submit(res.point, res.attempt + 1)
                        continue
                    if progress is not None and (
                        eta.completed % step == 0
                        or eta.completed == eta.total
                    ):
                        progress(eta.render())
            stats.pool_restarts = getattr(engine, "pool_restarts", 0)
            stats.degraded_serial = getattr(engine, "degraded_serial", False)
            stats.requeues = getattr(engine, "requeues", 0)
            backend_corrupt = getattr(engine, "cache_corrupt", 0)
        finally:
            if owns:
                engine.close()

    ordered = [
        results[point.index] for point in points if point.index in results
    ]
    meta = [
        metas[point.index] for point in points if point.index in metas
    ]
    failures.sort(key=lambda failure: failure.index)
    stats.wall_s = time.perf_counter() - started
    stats.mean_point_s = eta.mean_point_s
    if cache is not None:
        stats.cache_corrupt = cache.corrupt_discarded - corrupt_before
        cache.write_checkpoint(
            spec.name, done=len(results), total=len(points)
        )
    # Corrupt entries the server's shared store healed on our behalf.
    stats.cache_corrupt += backend_corrupt
    return ParallelSweepResult(
        spec=spec, points=ordered, stats=stats, failures=failures, meta=meta,
    )
