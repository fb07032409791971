"""The adversary registry: names, typed parameters, and model tags.

The one module that names adversaries.  Every surface builds through
:data:`REGISTRY`: the CLI's ``--adversary`` choices, the bench
scenarios' sweeps, ``repro chaos`` and ``repro showdown``, the fuzz
driver's adversary draws, and the e2e workloads.  A sweep's adversary
is data, an :class:`AdversarySpec`: a registered name plus keyword
parameters, which pickles across the engine's process boundary and
keys the result cache field by field.

Each entry declares its own parameters with their defaults (``random``
takes ``fail`` and ``restart_prob``, ``burst`` its ``period`` and
``fraction``, ...); a value no caller varies is a constant of the
builder, not a parameter.  Every entry also takes the two
wrapper parameters of :data:`WRAPPERS`: ``restarts=False`` wraps the
adversary in :class:`NoRestartAdversary` (KS89's fail-stop limit),
and ``budget=M`` then wraps it in :class:`FailureBudgetAdversary`
(|F| <= M; ``budget=0`` still wraps).  An unknown name or parameter,
or a value of the wrong type, raises ``ValueError`` naming the entry
and its parameters.

Each entry carries **model tags** placing the adversary in a fault
model from the literature:

* ``fail-stop-restart`` — KS91's restartable fail-stop processors (the
  source paper's model; every legacy adversary lives here);
* ``static-proc`` — Chlebus–Gasieniec–Pelc static processor faults
  (dead at the start, forever; no restarts);
* ``static-mem`` — CGP static memory faults (dead cells whose writes
  vanish and whose reads return a poison sentinel);
* ``persistent-mem`` — Blelloch et al.'s Parallel Persistent Memory
  model (crashes erase private state unless checkpointed).  No entry
  carries it: the model belongs to the runner that checkpoints,
  :class:`repro.simulation.persistent.PersistentCheckpointRunner`,
  whatever adversary drives it;
* ``hetero-speed`` — Zavou & Fernández Anta's latency heterogeneity
  (adversarial per-processor speed classes).

Which names the fuzz driver draws is its own table,
:data:`repro.fuzz.driver.ADVERSARY_DRAWS`.

Registering a new adversary means adding one :class:`AdversaryEntry`
here (and a :data:`CLASS_TAGS` row for its class); the CI completeness
test (``tests/faults/test_registry.py``) fails if an ``Adversary``
subclass in :mod:`repro.faults` is missing from :data:`CLASS_TAGS`.

This module lives in the faults layer (it imports nothing above it), so
the experiments layer, the fuzz driver and the CLI can all import it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type

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

#: Builder protocol: ``(seed, **params) -> adversary``, called with
#: every parameter the entry declares.
Builder = Callable[..., Adversary]

#: The wrapper parameters every entry takes, with their types and
#: defaults (the defaults wrap nothing).
WRAPPERS: Dict[str, Tuple[type, Any]] = {
    "budget": (int, None),
    "restarts": (bool, True),
}


@dataclass(frozen=True)
class AdversaryEntry:
    """One registry row: a named adversary plus its model placement.

    ``params`` declares the entry's own parameters as ``(name,
    default)`` pairs; a parameter's type is its default's.
    """

    name: str
    tags: Tuple[str, ...]
    source: str
    summary: str
    builder: Builder
    params: Tuple[Tuple[str, Any], ...] = ()

    def parameters(self) -> Tuple[str, ...]:
        """Every parameter the entry takes: its own, then the wrappers'."""
        return tuple(key for key, _default in self.params) + tuple(WRAPPERS)

    def canonical(self, params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
        """``params`` checked and sorted, without those at their default.

        Ints are accepted for float parameters and stored as floats, so
        one adversary has one spec (and one cache key).
        """
        declared = {key: (type(default), default)
                    for key, default in self.params}
        declared.update(WRAPPERS)
        pairs = []
        for key, value in sorted(params.items()):
            if key not in declared:
                raise ValueError(
                    f"adversary {self.name!r} takes no parameter {key!r}; "
                    f"its parameters: {', '.join(self.parameters())}"
                )
            kind, default = declared[key]
            if value is None and default is None:
                continue
            if kind is float and type(value) is int:
                value = float(value)
            if type(value) is not kind:
                raise ValueError(
                    f"adversary {self.name!r}: parameter {key!r} takes "
                    f"{kind.__name__}, got {value!r}; its parameters: "
                    f"{', '.join(self.parameters())}"
                )
            if value != default:
                pairs.append((key, value))
        return tuple(pairs)

    def build(self, seed: int = 0, **params: Any) -> Adversary:
        """The adversary with ``params`` over the defaults, seeded with
        ``seed`` and wrapped as the wrapper parameters ask."""
        values = dict(self.params)
        values.update(self.canonical(params))
        budget = values.pop("budget", None)
        restarts = values.pop("restarts", True)
        adversary = self.builder(seed, **values)
        if not restarts:
            adversary = NoRestartAdversary(adversary)
        if budget is not None:
            adversary = FailureBudgetAdversary(adversary, budget)
        return adversary


@dataclass(frozen=True)
class AdversarySpec:
    """A registered name plus keyword parameters: an adversary as data.

    Build one with :func:`spec`.  ``params`` holds the parameters that
    differ from the entry's defaults as sorted ``(key, value)`` pairs,
    so equal adversaries have equal specs, and the spec pickles and
    fingerprints (:func:`repro.experiments.cache.fingerprint`) field by
    field.  Construction checks the name and every parameter.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", get(self.name).canonical(dict(self.params))
        )

    def build(self, seed: int = 0) -> Adversary:
        """A fresh adversary for one run, seeded with ``seed``."""
        return get(self.name).build(seed, **dict(self.params))


def _sparse_schedule(seed: int, victims: int) -> ScheduledAdversary:
    """Eight fail/restart pairs 400 ticks apart from tick 50 + seed,
    each victim down for 7 ticks.

    The regime the machine's event-horizon fast-forward targets: an
    offline schedule whose bisected horizon leaves ~400-tick provably
    quiet windows between events.  The seed shifts the phase so sweep
    seeds realize distinct (but equally sparse) patterns; victims
    rotate over the first ``victims`` PIDs (events naming a PID that is
    not in the required state are vacuous by the offline pattern
    semantics, so any machine size is legal).
    """
    schedule = {}
    for k in range(8):
        base = 50 + 400 * k + seed
        schedule[base] = ([k % victims], [])
        schedule[base + 7] = ([], [k % victims])
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
    lambda seed: NoFailures(),
))
_register(AdversaryEntry(
    "random", ("fail-stop-restart",), "[KPS 90]-style",
    "i.i.d. per-tick failures and restarts",
    lambda seed, fail, restart_prob: RandomAdversary(
        fail, restart_prob, seed=seed
    ),
    params=(("fail", 0.1), ("restart_prob", 0.3)),
))
_register(AdversaryEntry(
    "crash", ("fail-stop-restart",), "[KS 89]",
    "random crashes, no restarts (fail-stop limit of KS91)",
    lambda seed, fail: NoRestartAdversary(RandomAdversary(fail, seed=seed)),
    params=(("fail", 0.1),),
))
_register(AdversaryEntry(
    "thrashing", ("fail-stop-restart",), "Example 2.2",
    "read-then-mass-fail churn separating S from S'",
    lambda seed: ThrashingAdversary(),
))
_register(AdversaryEntry(
    "halving", ("fail-stop-restart",), "Theorem 3.1",
    "pigeonhole halving strategy (Omega(N log N) lower bound)",
    lambda seed: HalvingAdversary(),
))
_register(AdversaryEntry(
    "stalker", ("fail-stop-restart",), "Theorem 4.8",
    "post-order stalker driving algorithm X to ~N^{log 3}",
    lambda seed: StalkingAdversaryX(),
))
_register(AdversaryEntry(
    "starver", ("fail-stop-restart",), "Section 4.1",
    "iteration starver (non-termination of pure V)",
    lambda seed: IterationStarver(),
))
_register(AdversaryEntry(
    "acc-stalker", ("fail-stop-restart",), "Section 5",
    "element guard against the randomized ACC algorithm",
    lambda seed: AccStalker(),
))
_register(AdversaryEntry(
    "burst", ("fail-stop-restart",), "—",
    "periodic mass failure and revival",
    lambda seed, period, fraction: BurstAdversary(
        period=period, fraction=fraction, downtime=1
    ),
    params=(("period", 3), ("fraction", 0.5)),
))
_register(AdversaryEntry(
    "sched-sparse", ("fail-stop-restart",), "Sec 5 (off-line)",
    "sparse offline fail/restart schedule (event-horizon regime)",
    _sparse_schedule,
    params=(("victims", 4),),
))

# --------------------------------------------------------------------- #
# static faults (Chlebus–Gasieniec–Pelc)
# --------------------------------------------------------------------- #

_register(AdversaryEntry(
    "static-proc", ("static-proc",),
    "Chlebus–Gasieniec–Pelc",
    "kills a seeded 25% of processors at tick 1, forever",
    lambda seed: StaticFaultAdversary(dead_frac=0.25, seed=seed),
))
_register(AdversaryEntry(
    "static-mem", ("static-proc", "static-mem"),
    "Chlebus–Gasieniec–Pelc",
    "25% dead processors plus 25% dead Write-All cells (poisoned)",
    lambda seed, dead_frac: StaticFaultAdversary(
        dead_frac=dead_frac, mem_frac=0.25, seed=seed
    ),
    params=(("dead_frac", 0.25),),
))

# --------------------------------------------------------------------- #
# heterogeneous speeds (Zavou & Fernández Anta)
# --------------------------------------------------------------------- #

_register(AdversaryEntry(
    "speed-classes", ("hetero-speed",),
    "Zavou & Fernández Anta",
    "seeded speed classes: class-k PIDs advance every k-th tick",
    lambda seed: SpeedClassAdversary(seed=seed),
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

def tags_for(name: str) -> Tuple[str, ...]:
    return get(name).tags

def get(name: str) -> AdversaryEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; known: {sorted(REGISTRY)}"
        ) from None

def spec(name: str, **params: Any) -> AdversarySpec:
    """The spec of ``name`` with ``params`` (checked on construction)."""
    return AdversarySpec(name, tuple(params.items()))

def spec_taking(name: str, **offered: Any) -> AdversarySpec:
    """The spec of ``name`` with those of ``offered`` it declares.

    How shared knobs reach only the entries they parameterize: the
    CLI's ``--fail``/``--restart-prob`` and the fuzz draw's
    probabilities (``halving`` ignores both, ``crash`` takes ``fail``).
    """
    declared = get(name).parameters()
    return spec(name, **{key: value for key, value in offered.items()
                         if key in declared})

def build(name: str, seed: int = 0, **params: Any) -> Adversary:
    """Build one adversary by registered name."""
    return get(name).build(seed, **params)


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
    RandomAdversary: ("fail-stop-restart",),
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
