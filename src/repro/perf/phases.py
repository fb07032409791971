"""Per-phase wall-clock counters for the machine's tick loop.

A :class:`PhaseCounters` instance handed to ``Machine(phase_counters=…)``
accumulates, across every fast-path tick, the wall-clock seconds spent in
the four tick phases:

* **collect** — reads + compute (write-set materialization);
* **adversary** — view construction, the decide() call, and the
  failure-validation / fairness / progress rulings (a never-acting
  or absent adversary is consulted too, as in the reference);
* **resolve** — CRCW write resolution and the memory commit;
* **settle** — work charging, processor advancement, and restarts.

Every tick executed inside an event-horizon quiet window skips the
four-phase breakdown (timing a window per phase would un-batch it) and
is counted in ``fused_ticks`` instead — whichever window tick ran it
(kernel, generic or vector), so including ticks of windows whose policy
rules out the kernel tick (EREW reads, stateful policies).  ``ticks + fused_ticks`` is the run's
true tick total and the phase seconds cover only the observable
(consulted) ticks.  Requesting phase counters does not disable
windows.

Only the fast path is instrumented: the reference tick implementation is
the executable specification and stays free of timing hooks.  The
end-to-end benchmark's traced ``solve`` ops (``benchmarks/e2e``) read
the six fields.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass
class PhaseCounters:
    """Accumulated per-phase seconds plus the tick count they cover."""

    collect_s: float = 0.0
    adversary_s: float = 0.0
    resolve_s: float = 0.0
    settle_s: float = 0.0
    ticks: int = 0
    fused_ticks: int = 0
