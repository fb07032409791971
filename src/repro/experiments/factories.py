"""Picklable, fingerprintable adversary factories for sweeps.

A :class:`~repro.experiments.spec.SweepSpec` carries an *adversary
factory* — a callable mapping the sweep seed to a fresh adversary.
Plain lambdas work for in-process sweeps, but the parallel engine ships
each point to a worker process, and the result cache keys points by a
content hash of their spec; both need factories that

* pickle (so they cross the process boundary), and
* describe themselves stably (so the hash survives restarts).

Every factory here is a frozen dataclass: picklable by construction,
and fingerprinted field-by-field via
:func:`repro.experiments.cache.fingerprint`.  Compose them freely —
``Budgeted(Thrashing(), 256)``, ``NoRestart(Stalker())`` — the
fingerprint recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults import (
    AccStalker,
    BurstAdversary,
    FailureBudgetAdversary,
    HalvingAdversary,
    IterationStarver,
    NoFailures,
    NoRestartAdversary,
    RandomAdversary,
    SpeedClassAdversary,
    StalkingAdversaryX,
    StaticFaultAdversary,
    ThrashingAdversary,
)
from repro.faults import registry as adversary_registry

#: Factory protocol: seed -> adversary (or None for failure-free).
AdversaryFactory = Callable[[int], Optional[object]]


@dataclass(frozen=True)
class FailureFree:
    """No failures at all, regardless of seed."""

    def __call__(self, seed: int):
        return NoFailures()


@dataclass(frozen=True)
class RandomChurn:
    """I.i.d. failures and restarts, seeded per sweep point."""

    fail: float = 0.1
    restart_prob: float = 0.3

    def __call__(self, seed: int):
        return RandomAdversary(self.fail, self.restart_prob, seed=seed)


@dataclass(frozen=True)
class CrashOnly:
    """The [KS 89] fail-stop model: random crashes, no restarts."""

    fail: float = 0.05

    def __call__(self, seed: int):
        return NoRestartAdversary(RandomAdversary(self.fail, seed=seed))


@dataclass(frozen=True)
class Thrashing:
    """Example 2.2's quadratic-S' strategy."""

    def __call__(self, seed: int):
        return ThrashingAdversary()


@dataclass(frozen=True)
class Halving:
    """Theorem 3.1's Omega(N log N) pigeonhole strategy."""

    def __call__(self, seed: int):
        return HalvingAdversary()


@dataclass(frozen=True)
class Stalker:
    """Theorem 4.8's post-order stalker against algorithm X."""

    def __call__(self, seed: int):
        return StalkingAdversaryX()


@dataclass(frozen=True)
class Starver:
    """Section 4.1's iteration starver (non-termination of pure V)."""

    def __call__(self, seed: int):
        return IterationStarver()


@dataclass(frozen=True)
class AccStalking:
    """Section 5's stalker against the randomized ACC algorithm."""

    fail_stop: bool = False

    def __call__(self, seed: int):
        return AccStalker(fail_stop=self.fail_stop)


@dataclass(frozen=True)
class Burst:
    """Periodic mass failures."""

    period: int = 3
    fraction: float = 0.5
    downtime: int = 1

    def __call__(self, seed: int):
        return BurstAdversary(
            period=self.period, fraction=self.fraction,
            downtime=self.downtime,
        )


@dataclass(frozen=True)
class SparseSchedule:
    """Deterministic fail/restart pairs spread ``gap`` ticks apart.

    The regime the machine's event-horizon fast-forward targets: an
    offline schedule whose bisected horizon leaves ~``gap``-tick
    provably-quiet windows between events.  The seed shifts the phase
    so sweep seeds realize distinct (but equally sparse) patterns;
    victims rotate over the first ``victims`` PIDs (events naming a
    PID that is not in the required state are vacuous by the offline
    pattern semantics, so any machine size is legal).
    """

    events: int = 8
    gap: int = 400
    start: int = 50
    downtime: int = 7
    victims: int = 4

    def __call__(self, seed: int):
        return adversary_registry.sparse_schedule(
            seed, events=self.events, gap=self.gap, start=self.start,
            downtime=self.downtime, victims=self.victims,
        )


@dataclass(frozen=True)
class Budgeted:
    """Cap an inner factory's pattern size at ``budget`` (|F| <= M)."""

    inner: AdversaryFactory
    budget: int

    def __call__(self, seed: int):
        return FailureBudgetAdversary(self.inner(seed), self.budget)


@dataclass(frozen=True)
class NoRestart:
    """Strip restarts from an inner factory's adversary."""

    inner: AdversaryFactory

    def __call__(self, seed: int):
        return NoRestartAdversary(self.inner(seed))


@dataclass(frozen=True)
class StaticFaults:
    """CGP static processor/memory faults, seeded per sweep point.

    ``dead_frac`` of the processors die at tick 1 forever; ``mem_frac``
    of the Write-All cells are declared dead before the run starts (the
    runner applies the adversary's memory fault plan).
    """

    dead_frac: float = 0.25
    mem_frac: float = 0.0

    def __call__(self, seed: int):
        return StaticFaultAdversary(
            dead_frac=self.dead_frac, mem_frac=self.mem_frac, seed=seed
        )


@dataclass(frozen=True)
class SpeedClasses:
    """Zavou/Fernández-Anta speed classes, rotation seeded per point."""

    classes: tuple = (1, 2, 4)

    def __call__(self, seed: int):
        return SpeedClassAdversary(classes=self.classes, seed=seed)


@dataclass(frozen=True)
class PersistentCheckpointRunner:
    """A :attr:`SweepSpec.runner` measuring the PPM checkpoint axis.

    Each point runs a whole simulated program (prefix-sum of width N)
    through :class:`repro.simulation.PersistentSimulator` under the
    point's adversary, with private state checkpointed every
    ``interval`` completed cycles at ``cost`` no-op cycles apiece
    (``interval=0``: pure KS91 restarts).  The algorithm factory and
    lane the engine passes are ignored — the generational executor is
    fixed — and the result maps onto
    :class:`~repro.core.runner.RunMeasures` so sweeps, caching and
    reports treat it like any other point.
    """

    interval: int = 0
    cost: int = 1

    def __call__(self, algorithm_factory, n, p, adversary=None,
                 max_ticks=None, fairness_window=None, lane="fast"):
        from repro.core.runner import RunMeasures
        from repro.simulation.persistent import (
            CheckpointPolicy,
            PersistentSimulator,
        )
        from repro.simulation.programs import prefix_sum_program

        simulator = PersistentSimulator(
            p,
            adversary=adversary,
            checkpoint=CheckpointPolicy(self.interval, self.cost),
            **({} if max_ticks is None else {"max_ticks": max_ticks}),
        )
        result = simulator.execute(prefix_sum_program(n), list(range(n)))
        ledger = result.ledger
        return RunMeasures(
            algorithm=f"ppm-ck{self.interval}",
            n=n, p=p,
            solved=result.solved,
            completed_work=ledger.completed_work,
            charged_work=ledger.charged_work,
            pattern_size=ledger.pattern_size,
            overhead_ratio=ledger.overhead_ratio(n),
            parallel_time=ledger.parallel_time,
        )


@dataclass(frozen=True)
class NamedAdversary:
    """The registry's adversary vocabulary as a picklable factory.

    Mirrors ``python -m repro``'s ``--adversary/--fail/--restart-prob``
    flags so CLI sweeps can run through the parallel engine.  Names
    resolve through :mod:`repro.faults.registry`.
    """

    name: str
    fail: float = 0.1
    restart_prob: float = 0.3

    def __call__(self, seed: int):
        return build_named_adversary(
            self.name, self.fail, self.restart_prob, seed
        )


#: Names accepted by :class:`NamedAdversary` / the CLI — derived from
#: the unified registry (:mod:`repro.faults.registry`), sorted.  Kept
#: as a list for backward compatibility with callers that copied it.
NAMED_ADVERSARIES = list(adversary_registry.names())


def build_named_adversary(name: str, fail: float, restart_prob: float,
                          seed: int):
    """Build one adversary from the registry vocabulary.

    Thin delegate to :func:`repro.faults.registry.build`, kept as the
    stable entry point (fuzz fixtures and cached sweep specs replay
    adversaries by this name).  Raises ``ValueError`` for unknown names
    (the CLI wraps this into a ``SystemExit``).
    """
    return adversary_registry.build(name, fail, restart_prob, seed)
