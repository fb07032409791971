"""The local process pool the sweep engine runs attempts on.

:func:`repro.experiments.parallel.run_sweep_parallel` runs a point
inline when ``workers <= 1`` and on one :class:`PoolBackend` when
``workers > 1``.  Both execute
:func:`repro.experiments.parallel.execute_point`, looked up as a module
attribute at call time so tests (and instrumentation) that monkeypatch
it keep working.  The chaos-free call signature stays exactly
``execute_point(point, timeout)`` — the documented compat hook from the
pre-chaos engine.
"""

from __future__ import annotations

import collections
import concurrent.futures
import concurrent.futures.process
import random
import time
from typing import Deque, Dict, List, Optional, Tuple

_BrokenPool = concurrent.futures.process.BrokenProcessPool

#: One attempt's outcome: ``(point, attempt, status, payload, elapsed)``.
#: ``point`` is the very object submitted (the engine maps it back to
#: its sweep by identity); ``status`` is the engine's
#: ``ok``/``timeout``/``error``/``crash``; ``payload`` is the
#: :class:`~repro.experiments.runner.RunPoint` on success and a
#: diagnostic string otherwise.
Attempt = Tuple[object, int, str, object, float]

#: Attempts a :class:`PoolBackend` keeps inside its executor per worker:
#: one running and one ready to start, so a worker never waits on the
#: engine, while a broken pool charges a crash to at most this many
#: attempts per worker.
IN_FLIGHT_PER_WORKER = 2

#: Broken-pool rebuilds before a :class:`PoolBackend` degrades to inline
#: execution for the attempts left.
MAX_POOL_RESTARTS = 3

#: Seed of the jitter drawn for the backoff between pool rebuilds.
BACKOFF_SEED = 0


class PoolBackend:
    """A crash-safe local ``ProcessPoolExecutor``.

    :meth:`submit` enqueues one ``(point, attempt)`` and never blocks;
    :meth:`collect` blocks until at least one attempt has an outcome and
    returns the batch as :data:`Attempt` tuples, so a dead worker is an
    ordinary ``crash`` outcome, not an exception.

    At most :data:`IN_FLIGHT_PER_WORKER` attempts per worker sit inside
    the executor; the rest wait in this backend's own queue.  A broken
    pool (a worker died without reporting) is not an error: completed
    futures keep their results, each attempt that was inside the broken
    pool comes back as one ``crash`` attempt, queued attempts stay
    queued uncharged, and the next dispatch builds a fresh pool after a
    capped, seeded-jitter exponential backoff.  A pool that dies more
    than :data:`MAX_POOL_RESTARTS` times degrades the backend to inline
    execution for the remaining attempts.
    """

    def __init__(
        self,
        workers: int,
        timeout: Optional[float] = None,
        chaos=None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        self._workers = workers
        self._timeout = timeout
        self._chaos = chaos
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = random.Random(BACKOFF_SEED)
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

    def collect(self) -> List[Attempt]:
        if self.degraded_serial:
            import repro.experiments.parallel as parallel

            point, attempt = self._queue.popleft()
            return [parallel.run_inline(
                point, attempt, self._timeout, self._chaos
            )]

        results: List[Attempt] = []
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
                results.append((point, attempt, status, payload, elapsed))
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
            results.append((point, attempt, status, payload, elapsed))
        self._futures.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self.pool_restarts += 1
        for point, attempt in casualties:
            results.append((
                point, attempt, "crash",
                "worker process died (process pool broken)", 0.0,
            ))
        if self.pool_restarts > MAX_POOL_RESTARTS:
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
