"""The unified adversary registry: names, factories, and model tags.

Single source of truth for every surface that enumerates adversaries —
the CLI's ``--adversary`` choices, the bench scenarios, the fuzz
driver's adversary draws, and the sweep factories' named vocabulary all
derive from :data:`REGISTRY` instead of keeping hand-copied lists.

Each entry carries **model tags** placing the adversary in a fault
model from the literature:

* ``fail-stop-restart`` — KS91's restartable fail-stop processors (the
  source paper's model; every legacy adversary lives here);
* ``static-proc`` — Chlebus–Gasieniec–Pelc static processor faults
  (dead at the start, forever; no restarts);
* ``static-mem`` — CGP static memory faults (dead cells whose writes
  vanish and whose reads return a poison sentinel);
* ``persistent-mem`` — Blelloch et al.'s Parallel Persistent Memory
  model (crashes erase private state unless checkpointed; see
  :class:`repro.simulation.persistent.CheckpointPolicy`);
* ``hetero-speed`` — Zavou & Fernández Anta's latency heterogeneity
  (adversarial per-processor speed classes).

``fuzzable`` marks entries the fuzz driver may draw: layout-agnostic
adversaries that are safe under arbitrary generated programs.  Entries
that poison memory cells (``static-mem``) or assume a Write-All layout
are excluded — generated programs have no fault-routing discipline.

Registering a new adversary means adding one :class:`AdversaryEntry`
here (and a :data:`CLASS_TAGS` row for its class); the CI completeness
test (``tests/faults/test_registry.py``) fails if an ``Adversary``
subclass in :mod:`repro.faults` is missing from :data:`CLASS_TAGS` or a
registered name does not round-trip through
:func:`repro.experiments.factories.build_named_adversary`.

This module lives in the faults layer (it imports nothing above it), so
both :mod:`repro.experiments.factories` and the CLI can import it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from repro.faults.base import Adversary, ScheduledAdversary
from repro.faults.budget import FailureBudgetAdversary, NoRestartAdversary
from repro.faults.compose import PhaseSwitchAdversary, UnionAdversary
from repro.faults.halving import HalvingAdversary
from repro.faults.random_adversary import BurstAdversary, RandomAdversary
from repro.faults.replay import RecordingAdversary
from repro.faults.simple import NoFailures, SinglePidKiller
from repro.faults.speed import SpeedClassAdversary
from repro.faults.stalking import AccStalker, StalkingAdversaryX
from repro.faults.starver import IterationStarver
from repro.faults.static import StaticFaultAdversary
from repro.faults.targeted import AdaptiveLoadAdversary, CellGuardAdversary
from repro.faults.thrashing import ThrashingAdversary

#: The model-tag vocabulary (ordered for display).
MODEL_TAGS: Tuple[str, ...] = (
    "fail-stop-restart",
    "static-proc",
    "static-mem",
    "persistent-mem",
    "hetero-speed",
)

#: Builder protocol: ``(fail, restart_prob, seed) -> adversary``.  The
#: two probabilities parameterize only the stochastic entries; the rest
#: ignore them (same contract the CLI flags always had).
Builder = Callable[[float, float, int], Adversary]


@dataclass(frozen=True)
class AdversaryEntry:
    """One registry row: a named adversary plus its model placement."""

    name: str
    tags: Tuple[str, ...]
    source: str
    summary: str
    builder: Builder
    fuzzable: bool = False

    def build(self, fail: float = 0.1, restart_prob: float = 0.3,
              seed: int = 0) -> Adversary:
        return self.builder(fail, restart_prob, seed)


def sparse_schedule(seed: int, events: int = 8, gap: int = 400,
                    start: int = 50, downtime: int = 7,
                    victims: int = 4) -> ScheduledAdversary:
    """``events`` fail/restart pairs ``gap`` ticks apart, shifted by ``seed``.

    The ``sched-sparse`` entry and ``factories.SparseSchedule`` both
    build through this.
    """
    schedule = {}
    for k in range(events):
        base = start + gap * k + seed
        schedule[base] = ([k % victims], [])
        schedule[base + downtime] = ([], [k % victims])
    return ScheduledAdversary(schedule)


REGISTRY: Dict[str, AdversaryEntry] = {}


def _register(entry: AdversaryEntry) -> None:
    if entry.name in REGISTRY:
        raise ValueError(f"duplicate adversary name {entry.name!r}")
    for tag in entry.tags:
        if tag not in MODEL_TAGS:
            raise ValueError(
                f"adversary {entry.name!r} has unknown model tag {tag!r}; "
                f"known: {MODEL_TAGS}"
            )
    if not entry.tags:
        raise ValueError(f"adversary {entry.name!r} has no model tags")
    REGISTRY[entry.name] = entry


# --------------------------------------------------------------------- #
# KS91 fail-stop/restart entries (the legacy vocabulary, names frozen)
# --------------------------------------------------------------------- #

_register(AdversaryEntry(
    "none", ("fail-stop-restart",), "—",
    "failure-free PRAM baseline",
    lambda fail, restart_prob, seed: NoFailures(),
    fuzzable=True,
))
_register(AdversaryEntry(
    # Also the churn of checkpointed persistent-memory runs (R3).
    "random", ("fail-stop-restart", "persistent-mem"), "[KPS 90]-style",
    "i.i.d. per-tick failures and restarts",
    lambda fail, restart_prob, seed: RandomAdversary(
        fail, restart_prob, seed=seed
    ),
    fuzzable=True,
))
_register(AdversaryEntry(
    "crash", ("fail-stop-restart",), "[KS 89]",
    "random crashes, no restarts (fail-stop limit of KS91)",
    lambda fail, restart_prob, seed: NoRestartAdversary(
        RandomAdversary(fail, seed=seed)
    ),
    fuzzable=True,
))
_register(AdversaryEntry(
    "thrashing", ("fail-stop-restart",), "Example 2.2",
    "read-then-mass-fail churn separating S from S'",
    lambda fail, restart_prob, seed: ThrashingAdversary(),
    fuzzable=True,
))
_register(AdversaryEntry(
    "halving", ("fail-stop-restart",), "Theorem 3.1",
    "pigeonhole halving strategy (Omega(N log N) lower bound)",
    lambda fail, restart_prob, seed: HalvingAdversary(),
    fuzzable=True,
))
_register(AdversaryEntry(
    "stalker", ("fail-stop-restart",), "Theorem 4.8",
    "post-order stalker driving algorithm X to ~N^{log 3}",
    lambda fail, restart_prob, seed: StalkingAdversaryX(),
))
_register(AdversaryEntry(
    "starver", ("fail-stop-restart",), "Section 4.1",
    "iteration starver (non-termination of pure V)",
    lambda fail, restart_prob, seed: IterationStarver(),
))
_register(AdversaryEntry(
    "acc-stalker", ("fail-stop-restart",), "Section 5",
    "element guard against the randomized ACC algorithm",
    lambda fail, restart_prob, seed: AccStalker(),
))
_register(AdversaryEntry(
    "burst", ("fail-stop-restart",), "—",
    "periodic mass failure and revival",
    lambda fail, restart_prob, seed: BurstAdversary(
        period=3, fraction=0.5, downtime=1
    ),
    fuzzable=True,
))
_register(AdversaryEntry(
    "sched-sparse", ("fail-stop-restart",), "Sec 5 (off-line)",
    "sparse offline fail/restart schedule (event-horizon regime)",
    lambda fail, restart_prob, seed: sparse_schedule(seed),
    fuzzable=True,
))

# --------------------------------------------------------------------- #
# static faults (Chlebus–Gasieniec–Pelc)
# --------------------------------------------------------------------- #

_register(AdversaryEntry(
    "static-proc", ("static-proc",),
    "Chlebus–Gasieniec–Pelc",
    "kills a seeded 25% of processors at tick 1, forever",
    lambda fail, restart_prob, seed: StaticFaultAdversary(
        dead_frac=0.25, seed=seed
    ),
))
_register(AdversaryEntry(
    "static-mem", ("static-proc", "static-mem"),
    "Chlebus–Gasieniec–Pelc",
    "25% dead processors plus 25% dead Write-All cells (poisoned)",
    lambda fail, restart_prob, seed: StaticFaultAdversary(
        dead_frac=0.25, mem_frac=0.25, seed=seed
    ),
))

# --------------------------------------------------------------------- #
# heterogeneous speeds (Zavou & Fernández Anta)
# --------------------------------------------------------------------- #

_register(AdversaryEntry(
    "speed-classes", ("hetero-speed",),
    "Zavou & Fernández Anta",
    "seeded speed classes: class-k PIDs advance every k-th tick",
    lambda fail, restart_prob, seed: SpeedClassAdversary(seed=seed),
    fuzzable=True,
))


# --------------------------------------------------------------------- #
# queries (the enumeration points every surface derives from)
# --------------------------------------------------------------------- #

def names() -> Tuple[str, ...]:
    """Every registered adversary name, sorted."""
    return tuple(sorted(REGISTRY))

def names_for_tag(tag: str) -> Tuple[str, ...]:
    """Registered names carrying ``tag`` (sorted); unknown tags raise."""
    if tag not in MODEL_TAGS:
        raise ValueError(
            f"unknown model tag {tag!r}; known: {sorted(MODEL_TAGS)}"
        )
    return tuple(
        sorted(name for name, entry in REGISTRY.items()
               if tag in entry.tags)
    )

def fuzz_names() -> Tuple[str, ...]:
    """Names the fuzz driver may draw, in registration order.

    Registration order (not sorted) so appending a new entry extends
    the draw table instead of permuting it.
    """
    return tuple(
        name for name, entry in REGISTRY.items() if entry.fuzzable
    )

def tags_for(name: str) -> Tuple[str, ...]:
    return get(name).tags

def get(name: str) -> AdversaryEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; known: {sorted(REGISTRY)}"
        ) from None

def build(name: str, fail: float = 0.1, restart_prob: float = 0.3,
          seed: int = 0) -> Adversary:
    """Build one adversary by registered name."""
    return get(name).build(fail, restart_prob, seed)


# --------------------------------------------------------------------- #
# class-level model placement (CI completeness check)
# --------------------------------------------------------------------- #

#: Every ``Adversary`` subclass in :mod:`repro.faults` must appear here
#: with at least one model tag — including wrappers and test utilities —
#: so a new adversary class cannot ship without declaring which fault
#: model it belongs to.  ``tests/faults/test_registry.py`` discovers
#: subclasses by walking the package and diffs against this table.
CLASS_TAGS: Dict[Type[Adversary], Tuple[str, ...]] = {
    NoFailures: ("fail-stop-restart",),
    SinglePidKiller: ("fail-stop-restart",),
    ScheduledAdversary: ("fail-stop-restart",),
    RandomAdversary: ("fail-stop-restart", "persistent-mem"),
    BurstAdversary: ("fail-stop-restart",),
    ThrashingAdversary: ("fail-stop-restart",),
    HalvingAdversary: ("fail-stop-restart",),
    StalkingAdversaryX: ("fail-stop-restart",),
    AccStalker: ("fail-stop-restart",),
    IterationStarver: ("fail-stop-restart",),
    CellGuardAdversary: ("fail-stop-restart",),
    AdaptiveLoadAdversary: ("fail-stop-restart",),
    RecordingAdversary: ("fail-stop-restart",),
    NoRestartAdversary: ("fail-stop-restart", "static-proc"),
    FailureBudgetAdversary: ("fail-stop-restart",),
    UnionAdversary: ("fail-stop-restart",),
    PhaseSwitchAdversary: ("fail-stop-restart",),
    StaticFaultAdversary: ("static-proc", "static-mem"),
    SpeedClassAdversary: ("hetero-speed",),
}


def class_tags_for(cls: Type[Adversary]) -> Optional[Tuple[str, ...]]:
    """The model tags declared for an adversary class, or ``None``."""
    return CLASS_TAGS.get(cls)
