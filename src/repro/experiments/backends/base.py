"""The executor seam of the parallel sweep engine.

The engine (:func:`repro.experiments.parallel.run_sweep_parallel`) is a
scheduler: it expands the grid, consults the cache, accounts attempts,
retries, and quarantines.  *Where* an attempt actually executes is a
:class:`Backend` — in this process or in a local process pool.

The contract is deliberately tiny:

* :meth:`Backend.submit` enqueues one ``(point, attempt)`` — it never
  blocks on execution and never raises for execution failures;
* :meth:`Backend.collect` blocks until at least one attempt has an
  outcome and returns the batch as :class:`AttemptResult` s — statuses
  are the engine's ``ok``/``timeout``/``error``/``crash`` vocabulary,
  so a dead worker is an ordinary ``crash`` result, not an exception;
* :meth:`Backend.close` releases the pool.

The one thing the engine asks of a backend beyond that is
:attr:`Backend.requires_picklable`: whether points cross a process
boundary, so a spec's ``algorithm`` and ``adversary`` must pickle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class AttemptResult:
    """One attempt's outcome, as reported by a backend.

    ``point`` is the very object passed to :meth:`Backend.submit`: the
    engine maps an outcome back to its sweep by identity.  ``status``
    uses the engine vocabulary (``ok``/``timeout``/
    ``error``/``crash``); ``payload`` is the
    :class:`~repro.experiments.runner.RunPoint` on success and a
    diagnostic string otherwise.
    """

    point: object
    attempt: int
    status: str
    payload: object
    elapsed: float


class Backend:
    """Abstract executor; see the module docstring for the contract."""

    #: Points cross a process boundary, so specs must pickle.
    requires_picklable: bool = False

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
