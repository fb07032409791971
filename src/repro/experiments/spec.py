"""Sweep specifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.core.base import WriteAllAlgorithm

#: Processor count: a constant or a function of N.
ProcessorRule = Union[int, Callable[[int], int]]
#: Adversary factory: called per (seed) — return None for failure-free.
AdversaryFactory = Callable[[int], Optional[object]]


@dataclass
class SweepSpec:
    """A grid of Write-All runs to execute and aggregate.

    Attributes:
        name: identifier used in tables and CSV exports.
        algorithm: the algorithm class (instantiated fresh per run —
            algorithms may hold incidental state, e.g. ACC's incarnation
            counters).
        sizes: instance sizes N (powers of two).
        processors: P, constant or ``f(n)``.
        adversary: factory called with the seed; ``None``/returning
            ``None`` means failure-free.
        seeds: seeds swept per (N, P) cell; the aggregate takes the
            worst case across them (Definition 2.3 takes maxima over
            failure patterns).
        max_ticks: per-run tick budget (``None``: the runner default).
        fairness_window: optional machine fairness guarantee.
        lane: the machine lane, a name in
            :data:`repro.pram.lanes.LANES` (``"fast"``, the default;
            ``"vec"`` needs the optional numpy extra).  Cache-key
            material for every lane but the default.
        backend: preferred executor backend for this sweep
            (``"serial"``, ``"pool"``, ``"remote:host:port"``); ``None``
            defers to the engine's ``workers`` mapping.  An explicit
            ``backend=`` argument to the engine wins over this.  Not
            cache-key material — results are backend-independent.
        point_floor_s: minimum wall-clock per point, enforced by
            sleeping out the remainder *after* the measures are taken.
            Zero (the default) is a no-op.  This exists for the
            distributed-fabric benchmarks: it pins per-point latency so
            1 -> N worker scaling measures dispatch concurrency rather
            than this host's core count.  Model-invisible and not
            cache-key material.
        runner: optional picklable callable with the signature of
            :func:`repro.core.runner.measure_write_all`, substituted
            for it when executing each point — how a sweep measures
            something other than a Write-All run (e.g. the
            persistent-memory checkpoint sweep runs a whole simulated
            program per point via
            :class:`repro.experiments.factories.PersistentCheckpointRunner`).
            Cache-key material, since it changes what a point measures.
    """

    name: str
    algorithm: Callable[[], WriteAllAlgorithm]
    sizes: Sequence[int]
    processors: ProcessorRule = lambda n: n
    adversary: Optional[AdversaryFactory] = None
    seeds: Iterable[int] = (0,)
    max_ticks: Optional[int] = None
    fairness_window: Optional[int] = None
    lane: str = "fast"
    backend: Optional[str] = None
    point_floor_s: float = 0.0
    runner: Optional[Callable] = None

    def processors_for(self, n: int) -> int:
        if callable(self.processors):
            return max(1, int(self.processors(n)))
        return max(1, int(self.processors))

    def adversary_for(self, seed: int):
        if self.adversary is None:
            return None
        return self.adversary(seed)

    def points(self) -> Iterator[Tuple[int, int, int]]:
        """Yield every ``(n, p, seed)`` of the grid, in sweep order.

        This is the single definition of sweep order: the serial runner
        and the parallel engine both iterate it, which is what makes
        their outputs comparable point-by-point.
        """
        seeds = list(self.seeds)
        for n in self.sizes:
            p = self.processors_for(n)
            for seed in seeds:
                yield n, p, seed
