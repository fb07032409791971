"""The executor seam of the parallel sweep engine.

The engine (:func:`repro.experiments.parallel.run_sweep_parallel`) is a
scheduler: it expands the grid, consults the cache, accounts attempts,
retries, and quarantines.  *Where* an attempt actually executes is a
:class:`Backend` — in this process, in a local process pool, or on a
fleet of remote workers behind ``python -m repro serve``.

The contract is deliberately tiny:

* :meth:`Backend.submit` enqueues one ``(point, attempt)`` — it never
  blocks on execution and never raises for execution failures;
* :meth:`Backend.collect` blocks until at least one attempt has an
  outcome and returns the batch as :class:`AttemptResult` s — statuses
  are the engine's ``ok``/``timeout``/``error``/``crash`` vocabulary,
  so a dead worker is an ordinary ``crash`` result, not an exception;
* :meth:`Backend.close` releases pools/sockets.

Capability flags (:class:`BackendCapabilities`) tell the engine what a
backend can promise — whether crashes are isolated from the driving
process, whether specs must pickle, whether lost work is re-queued by
a lease scheduler — without the engine knowing concrete types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can promise the engine.

    Attributes:
        name: short identifier (``serial`` / ``pool`` / ``remote``).
        supports_timeout: per-point wall-clock budgets are enforced
            (SIGALRM in the executing process's main thread).
        isolates_crashes: a crashing point kills a worker process, not
            the driving process (``serial`` executes in-process, so an
            injected crash surfaces as :class:`ChaosCrash` instead).
        requires_picklable: points cross a process/socket boundary, so
            ``algorithm``/``adversary`` must pickle.
        requeues_lost_work: the paper's fail-stop/restart story — work
            leased to a dead or stalled worker is re-queued and
            completes elsewhere without the engine seeing a failure.
        remote: execution leaves this host (socket transport).
    """

    name: str
    supports_timeout: bool = True
    isolates_crashes: bool = False
    requires_picklable: bool = False
    requeues_lost_work: bool = False
    remote: bool = False


@dataclass(frozen=True)
class AttemptResult:
    """One attempt's outcome, as reported by a backend.

    ``point`` is the very object passed to :meth:`Backend.submit`: the
    engine maps an outcome back to its sweep by identity.  ``status``
    uses the engine vocabulary (``ok``/``timeout``/
    ``error``/``crash``); ``payload`` is the
    :class:`~repro.experiments.runner.RunPoint` on success and a
    diagnostic string otherwise.  ``cached=True`` marks a server-side
    cache hit (the point never executed); ``stored=True`` means a
    shared remote store persisted the result, so the engine can account
    cache-side effects it did not perform itself.  ``lease_tries`` is
    how many leases the point consumed before completing (>1 means the
    fabric re-queued it past a dead/stalled worker).
    """

    point: object
    attempt: int
    status: str
    payload: object
    elapsed: float
    cached: bool = False
    stored: bool = False
    lease_tries: int = 1


class Backend:
    """Abstract executor; see the module docstring for the contract."""

    capabilities = BackendCapabilities(name="abstract")

    def submit(self, point, attempt: int) -> None:
        raise NotImplementedError

    def collect(self) -> List[AttemptResult]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # Optional accounting surfaced into SweepStats by the engine; the
    # base values mean "nothing to report".
    pool_restarts: int = 0
    degraded_serial: bool = False
    requeues: int = 0
    cache_corrupt: int = 0

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.close()
        return None
