"""Per-phase wall-clock counters for the machine's tick loop.

A :class:`PhaseCounters` instance handed to ``Machine(phase_counters=…)``
accumulates, across every fast-path tick, the wall-clock seconds spent in
the four tick phases:

* **collect** — reads + compute (write-set materialization);
* **adversary** — view construction, the decide() call, and the
  failure-validation / fairness / progress rulings (a passive or
  absent adversary is consulted too, as in the reference);
* **resolve** — CRCW write resolution and the memory commit;
* **settle** — work charging, processor advancement, and restarts.

Every tick executed inside an event-horizon quiet window skips the
four-phase breakdown (timing a window per phase would un-batch it) and
is counted in ``fused_ticks`` instead — whichever window tick ran it
(kernel, generic or vector), so including ticks of windows whose policy
or memory rules out the kernel tick (EREW reads, stateful
policies, word-width memory).  ``ticks + fused_ticks`` is the run's
true tick total and the percentages describe only the observable
(consulted) ticks.  Requesting phase counters does not disable
windows.

Only the fast path is instrumented: the reference tick implementation is
the executable specification and stays free of timing hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PhaseCounters:
    """Accumulated per-phase seconds plus the tick count they cover."""

    collect_s: float = 0.0
    adversary_s: float = 0.0
    resolve_s: float = 0.0
    settle_s: float = 0.0
    ticks: int = 0
    fused_ticks: int = 0

    @property
    def total_s(self) -> float:
        return self.collect_s + self.adversary_s + self.resolve_s + self.settle_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "collect_s": round(self.collect_s, 6),
            "adversary_s": round(self.adversary_s, 6),
            "resolve_s": round(self.resolve_s, 6),
            "settle_s": round(self.settle_s, 6),
            "total_s": round(self.total_s, 6),
            "ticks": self.ticks,
            "fused_ticks": self.fused_ticks,
        }

    def merge(self, other: "PhaseCounters") -> None:
        """Fold another run's counters into this one."""
        self.collect_s += other.collect_s
        self.adversary_s += other.adversary_s
        self.resolve_s += other.resolve_s
        self.settle_s += other.settle_s
        self.ticks += other.ticks
        self.fused_ticks += other.fused_ticks

    def describe(self) -> str:
        """One-line human-readable phase breakdown."""
        total = self.total_s
        fused = f" fused_ticks={self.fused_ticks}" if self.fused_ticks else ""
        if total <= 0.0:
            return f"ticks={self.ticks}{fused} (no phase time recorded)"
        parts = []
        for name, seconds in (
            ("collect", self.collect_s),
            ("adversary", self.adversary_s),
            ("resolve", self.resolve_s),
            ("settle", self.settle_s),
        ):
            parts.append(f"{name} {100.0 * seconds / total:.1f}%")
        return f"ticks={self.ticks}{fused} phases: " + ", ".join(parts)
