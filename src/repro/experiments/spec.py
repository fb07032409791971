"""Sweep specifications: a grid of runs as data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.core.base import WriteAllAlgorithm
from repro.faults.registry import AdversarySpec

#: Processor count: a constant or a function of N.
ProcessorRule = Union[int, Callable[[int], int]]


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
        adversary: a registry spec
            (:func:`repro.faults.registry.spec`), built afresh with
            each point's seed, or ``None`` for no adversary.  Anything
            else raises ``TypeError``: the spec is data, so it pickles
            to workers and its parameters key the result cache.
        seeds: seeds swept per (N, P) cell; the aggregate takes the
            worst case across them (Definition 2.3 takes maxima over
            failure patterns).
        max_ticks: per-run tick budget (``None``: the runner default).
        fairness_window: optional machine fairness guarantee.
        lane: the machine lane, a name in
            :data:`repro.pram.lanes.LANES` (``"fast"``, the default).
            Cache-key material for every lane but the default.
        runner: optional picklable callable with the signature of
            :func:`repro.core.runner.measure_write_all`, substituted
            for it when executing each point — how a sweep measures
            something other than a Write-All run (e.g. the
            persistent-memory checkpoint sweep runs a whole simulated
            program per point via
            :class:`repro.simulation.persistent.PersistentCheckpointRunner`).
            Cache-key material, since it changes what a point measures.
    """

    name: str
    algorithm: Callable[[], WriteAllAlgorithm]
    sizes: Sequence[int]
    processors: ProcessorRule = lambda n: n
    adversary: Optional[AdversarySpec] = None
    seeds: Iterable[int] = (0,)
    max_ticks: Optional[int] = None
    fairness_window: Optional[int] = None
    lane: str = "fast"
    runner: Optional[Callable] = None

    def __post_init__(self) -> None:
        if not (self.adversary is None
                or isinstance(self.adversary, AdversarySpec)):
            raise TypeError(
                f"SweepSpec {self.name!r}: adversary must be a registry "
                f"spec (repro.faults.registry.spec) or None, got "
                f"{self.adversary!r}"
            )

    def processors_for(self, n: int) -> int:
        if callable(self.processors):
            return max(1, int(self.processors(n)))
        return max(1, int(self.processors))

    def adversary_for(self, seed: int):
        if self.adversary is None:
            return None
        return self.adversary.build(seed)

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
