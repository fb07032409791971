"""In-process backends: serial (inline) and local process pool.

Both execute :func:`repro.experiments.parallel.execute_point`, looked
up as a module attribute at call time so tests (and instrumentation)
that monkeypatch it keep working.  The chaos-free call signature stays
exactly ``execute_point(point, timeout)`` — the documented compat hook
from the pre-chaos engine.
"""

from __future__ import annotations

import collections
import concurrent.futures
import concurrent.futures.process
import random
import time
from typing import Deque, Dict, List, Optional, Tuple

from repro.experiments.backends.base import (
    AttemptResult,
    Backend,
    BackendCapabilities,
)

_BrokenPool = concurrent.futures.process.BrokenProcessPool

#: Attempts a :class:`PoolBackend` keeps inside its executor per worker:
#: one running and one ready to start, so a worker never waits on the
#: engine, while a broken pool charges a crash to at most this many
#: attempts per worker.
IN_FLIGHT_PER_WORKER = 2


def _execute(point, timeout, chaos, attempt) -> Tuple[str, object, float]:
    """One inline attempt via the live ``parallel.execute_point``."""
    import repro.experiments.parallel as parallel

    if chaos is None:
        return parallel.execute_point(point, timeout)
    return parallel.execute_point(point, timeout, chaos, attempt)


class SerialBackend(Backend):
    """Inline execution, one point per :meth:`collect` call.

    Laziness is deliberate: executing inside ``collect`` (not
    ``submit``) keeps the engine's loop identical across backends, and
    keeps cache writes incremental — a run killed mid-sweep leaves
    every completed point's cache entry on disk, which the
    SIGKILL-resume tests assert.
    """

    capabilities = BackendCapabilities(
        name="serial", supports_timeout=True, isolates_crashes=False,
    )

    def __init__(self, timeout: Optional[float] = None, chaos=None) -> None:
        self._timeout = timeout
        self._chaos = chaos
        self._queue: Deque[Tuple[object, int]] = collections.deque()

    def submit(self, point, attempt: int) -> None:
        self._queue.append((point, attempt))

    def collect(self) -> List[AttemptResult]:
        point, attempt = self._queue.popleft()
        status, payload, elapsed = _execute(
            point, self._timeout, self._chaos, attempt
        )
        return [AttemptResult(point, attempt, status, payload, elapsed)]


class PoolBackend(Backend):
    """A crash-safe local ``ProcessPoolExecutor``.

    At most :data:`IN_FLIGHT_PER_WORKER` attempts per worker sit inside
    the executor; the rest wait in this backend's own queue.  A broken
    pool (a worker died without reporting) is not an error: completed
    futures keep their results, each attempt that was inside the broken
    pool comes back as one ``crash`` attempt, queued attempts stay
    queued uncharged, and the next dispatch builds a fresh pool after a
    capped, seeded-jitter exponential backoff.  A pool that keeps dying
    degrades the backend to serial inline execution for the remaining
    attempts.
    """

    capabilities = BackendCapabilities(
        name="pool", supports_timeout=True, isolates_crashes=True,
        requires_picklable=True,
    )

    def __init__(
        self,
        workers: int,
        timeout: Optional[float] = None,
        chaos=None,
        max_pool_restarts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_seed: int = 0,
    ) -> None:
        self._workers = max(1, int(workers))
        self._timeout = timeout
        self._chaos = chaos
        self._max_pool_restarts = max_pool_restarts
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = random.Random(backoff_seed)
        self._queue: Deque[Tuple[object, int]] = collections.deque()
        self._futures: Dict[concurrent.futures.Future,
                            Tuple[object, int]] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._size: Optional[int] = None
        self.pool_restarts = 0
        self.degraded_serial = False

    def submit(self, point, attempt: int) -> None:
        self._queue.append((point, attempt))

    def _dispatch(self) -> bool:
        """Top the pool up from the queue; False when it broke."""
        import repro.experiments.parallel as parallel

        if self._pool is None:
            if self._size is None:
                self._size = min(self._workers, max(1, len(self._queue)))
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._size
            )
        limit = IN_FLIGHT_PER_WORKER * self._size
        while self._queue and len(self._futures) < limit:
            point, attempt = self._queue.popleft()
            try:
                if self._chaos is None:
                    future = self._pool.submit(
                        parallel.execute_point, point, self._timeout
                    )
                else:
                    future = self._pool.submit(
                        parallel.execute_point, point, self._timeout,
                        self._chaos, attempt,
                    )
            except _BrokenPool:
                self._queue.appendleft((point, attempt))
                return False
            self._futures[future] = (point, attempt)
        return True

    def collect(self) -> List[AttemptResult]:
        if self.degraded_serial:
            point, attempt = self._queue.popleft()
            status, payload, elapsed = _execute(
                point, self._timeout, self._chaos, attempt
            )
            return [AttemptResult(point, attempt, status, payload, elapsed)]

        results: List[AttemptResult] = []
        casualties: List[Tuple[object, int]] = []
        broken = not self._dispatch()
        if not broken:
            done, _ = concurrent.futures.wait(
                self._futures,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in done:
                point, attempt = self._futures.pop(future)
                try:
                    status, payload, elapsed = future.result()
                except _BrokenPool:
                    broken = True
                    casualties.append((point, attempt))
                    continue
                except Exception as exc:  # worker died mid-task
                    status, payload, elapsed = "error", str(exc), 0.0
                results.append(AttemptResult(
                    point, attempt, status, payload, elapsed,
                ))
            if not broken:
                return results

        # The pool broke.  Drain what finished (a broken pool resolves
        # every remaining future immediately), then charge one "crash"
        # attempt to every attempt that was inside it — the engine
        # cannot tell the poison point from its pool-mates.  Attempts
        # still in the queue never reached the pool and stay uncharged.
        for future, (point, attempt) in self._futures.items():
            try:
                status, payload, elapsed = future.result()
            except _BrokenPool:
                casualties.append((point, attempt))
                continue
            except Exception as exc:
                status, payload, elapsed = "error", str(exc), 0.0
            results.append(AttemptResult(
                point, attempt, status, payload, elapsed,
            ))
        self._futures.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self.pool_restarts += 1
        for point, attempt in casualties:
            results.append(AttemptResult(
                point, attempt, "crash",
                "worker process died (process pool broken)", 0.0,
            ))
        if self.pool_restarts > self._max_pool_restarts:
            self.degraded_serial = True
        elif casualties:
            delay = min(
                self._backoff_cap,
                self._backoff_base * (2 ** (self.pool_restarts - 1)),
            )
            time.sleep(delay * (0.5 + self._rng.random()))
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
