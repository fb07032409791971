"""The fuzz driver: generated programs x lanes x adversaries x passes.

Each iteration draws a program, an initial memory, and an adversary
from the named-adversary registry (all pure functions of the fuzz
seed), computes the ideal fault-free run
(:func:`repro.simulation.classify.ideal_run`), then executes the
program through :class:`~repro.simulation.executor.RobustSimulator` on
every machine lane of the registry in :mod:`repro.pram.lanes`
(``fast``, ``noff``, ``nokernel``, ``auto``, ``reference``; the robust
phases' task sets are never vectorizable, so ``auto`` runs them on the
compiled kernels), under the same three-pass bit-identical convergence
contract as ``repro chaos``: every (iteration, lane) memory must equal
the ideal run *and* reproduce bit-identically across all passes.  The
drawn adversary is the only fault source: it acts inside the
simulator's machine, where the recovery under test lives.

On mismatch the driver delta-debugs the program to a minimal
reproduction (:mod:`repro.fuzz.shrinker`) and emits a replayable JSON
fixture (:mod:`repro.fuzz.fixtures`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import AlgorithmVX
from repro.faults import registry as adversary_registry
from repro.fuzz.generator import (
    DEFAULT_CONFIG,
    GeneratedProgram,
    GeneratorConfig,
    generate_initial_memory,
    generate_program,
    int_draw,
    unit_draw,
)
from repro.fuzz.shrinker import shrink
from repro.pram.lanes import LANES
from repro.simulation.classify import ideal_run
from repro.simulation.executor import RobustSimulator

#: The registry names the fuzzer draws: layout-agnostic adversaries
#: that terminate for the simulator's V+X engine and act within a fuzz
#: phase.  Excluded: ``stalker``, ``acc-stalker`` and ``starver``
#: (bespoke to one algorithm's layout); the ``static-mem`` entries
#: (they poison cells, and generated programs have no fault-routing
#: discipline — a poison-aware ideal run would let them in); and
#: ``sched-sparse`` (its first event, at tick 50 + seed, lies past the
#: tens of ticks a fuzz phase runs, so its draws ran fault-free).  A
#: draw indexes this tuple, so its order is part of every seeded draw:
#: a new entry goes at the end.
ADVERSARY_DRAWS: Tuple[str, ...] = (
    "none", "random", "crash", "thrashing", "halving", "burst",
    "speed-classes",
)


@dataclass(frozen=True)
class AdversaryDraw:
    """A replayable adversary draw: a registry name, the two drawn
    probabilities and a seed.  The probabilities reach only the entries
    that declare them (:func:`repro.faults.registry.spec_taking`)."""

    name: str
    fail: float = 0.1
    restart_prob: float = 0.3
    seed: int = 0

    def build(self):
        return adversary_registry.spec_taking(
            self.name, fail=self.fail, restart_prob=self.restart_prob,
        ).build(self.seed)

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "fail": self.fail,
            "restart_prob": self.restart_prob,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "AdversaryDraw":
        return cls(
            name=str(data["name"]),
            fail=float(data["fail"]),
            restart_prob=float(data["restart_prob"]),
            seed=int(data["seed"]),
        )


def draw_adversary_spec(seed: int, iteration: int) -> AdversaryDraw:
    """The adversary for ``(seed, iteration)`` — hash-derived, stable."""
    name = ADVERSARY_DRAWS[
        int_draw(seed, 0, len(ADVERSARY_DRAWS) - 1, "adv", iteration)
    ]
    fail = 0.05 + 0.25 * unit_draw(seed, "adv-fail", iteration)
    restart_prob = 0.2 + 0.4 * unit_draw(seed, "adv-restart", iteration)
    adversary_seed = int_draw(seed, 0, 2**31 - 1, "adv-seed", iteration)
    return AdversaryDraw(
        name=name, fail=round(fail, 6), restart_prob=round(restart_prob, 6),
        seed=adversary_seed,
    )


def check_lanes(lanes: Sequence[str]) -> None:
    """Raise ``ValueError`` naming any lane the registry lacks."""
    unknown = [lane for lane in lanes if lane not in LANES]
    if unknown:
        raise ValueError(f"unknown lane(s) {unknown}; known: {list(LANES)}")


def execute_lane(
    program: GeneratedProgram,
    initial: Sequence[int],
    lane: str,
    adversary_spec: AdversaryDraw,
    p: int,
    max_ticks_per_phase: int = 300_000,
):
    """One robust execution of ``program`` on ``lane``; returns the
    SimulationResult."""
    simulator = RobustSimulator(
        p=p,
        algorithm=AlgorithmVX(),
        adversary=adversary_spec.build(),
        max_ticks_per_phase=max_ticks_per_phase,
        **LANES[lane].solver_kwargs(),
    )
    return simulator.execute(program.to_sim_program(), list(initial))


def _memory_digest(memory: Sequence[int]) -> str:
    return hashlib.sha256(
        json.dumps(list(memory)).encode("utf-8")
    ).hexdigest()


@dataclass
class FuzzFailure:
    """One detected divergence, before and after shrinking."""

    kind: str  # "mismatch" | "unsolved" | "nonconverged"
    iteration: int
    lane: str
    pass_index: int
    adversary: AdversaryDraw
    p: int
    program: GeneratedProgram
    initial: List[int]
    expected: List[int]
    observed: Optional[List[int]]
    shrunk_program: Optional[GeneratedProgram] = None
    shrunk_initial: Optional[List[int]] = None
    #: Every lane the detecting run covered (registry order); replays
    #: re-check the fixture on all of them, not just the failing one.
    run_lanes: Tuple[str, ...] = ()

    def describe(self) -> str:
        size = len(self.program.steps)
        shrunk = (
            f", shrunk to {len(self.shrunk_program.steps)} step(s)"
            if self.shrunk_program is not None else ""
        )
        return (
            f"{self.kind} at iteration {self.iteration}, lane {self.lane}, "
            f"pass {self.pass_index}: {self.program.name} "
            f"({size} step(s), width {self.program.width}) under "
            f"{self.adversary.name}[seed={self.adversary.seed}] "
            f"on p={self.p}{shrunk}"
        )


@dataclass
class FuzzOutcome:
    """A fuzz run's verdict and accounting."""

    seed: int
    iterations: int
    passes: int
    lanes: Tuple[str, ...]
    converged: bool
    executions: int = 0
    adversary_histogram: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    fixture_paths: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "CONVERGED" if self.converged else "DIVERGED"
        lines = [
            f"{verdict}: seed {self.seed}, {self.iterations} program(s) x "
            f"{len(self.lanes)} lane(s) x {self.passes} pass(es) = "
            f"{self.executions} robust executions",
        ]
        lines.extend(
            f"  FAILURE: {failure.describe()}" for failure in self.failures
        )
        lines.extend(
            f"  fixture: {path}" for path in self.fixture_paths
        )
        return "\n".join(lines)


@dataclass
class FuzzIterationResult:
    """One iteration's accounting, mergeable into a FuzzOutcome."""

    iteration: int
    executions: int
    adversary: str
    failure: Optional[FuzzFailure]


def run_fuzz_iteration(
    seed: int,
    iteration: int,
    passes: int,
    lanes: Sequence[str],
    config: GeneratorConfig = DEFAULT_CONFIG,
) -> FuzzIterationResult:
    """One complete fuzz iteration: draw, ideal run, lanes x passes.

    Pure function of its arguments (every draw is hash-derived), so an
    iteration replays identically on its own.  Shrinking and fixture
    emission stay with the caller.
    """
    program = generate_program(
        int_draw(seed, 0, 2**31 - 1, "program", iteration), config,
    )
    initial = generate_initial_memory(
        int_draw(seed, 0, 2**31 - 1, "initial", iteration),
        program.memory_size,
    )
    adversary_spec = draw_adversary_spec(seed, iteration)
    p = int_draw(seed, 1, 4, "p", iteration)
    expected = ideal_run(program.to_sim_program(), initial)

    executions = 0
    failure: Optional[FuzzFailure] = None
    digests: Dict[str, str] = {}
    for pass_index in range(passes):
        if failure is not None:
            break
        for lane in lanes:
            result = execute_lane(program, initial, lane, adversary_spec, p)
            executions += 1

            failure_kind = None
            if not result.solved:
                failure_kind = "unsolved"
            elif result.memory != expected:
                failure_kind = "mismatch"
            else:
                digest = _memory_digest(result.memory)
                prior = digests.setdefault(lane, digest)
                if digest != prior:  # pragma: no cover - needs a bug
                    failure_kind = "nonconverged"
            if failure_kind is None:
                continue

            failure = FuzzFailure(
                kind=failure_kind,
                iteration=iteration,
                lane=lane,
                pass_index=pass_index,
                adversary=adversary_spec,
                p=p,
                program=program,
                initial=list(initial),
                expected=list(expected),
                observed=list(result.memory),
                run_lanes=tuple(lanes),
            )
            break  # stop re-running a known-bad (iteration, lane)
    return FuzzIterationResult(
        iteration=iteration,
        executions=executions,
        adversary=adversary_spec.name,
        failure=failure,
    )


def _failure_predicate(
    lane: str, adversary_spec: AdversaryDraw, p: int
) -> Callable[[GeneratedProgram, List[int]], bool]:
    """Does a candidate still diverge from its ideal run on this lane?"""

    def is_failing(program: GeneratedProgram, initial: List[int]) -> bool:
        try:
            expected = ideal_run(program.to_sim_program(), initial)
            result = execute_lane(program, initial, lane, adversary_spec, p)
        except ValueError:
            return False
        return not result.solved or result.memory != expected

    return is_failing


def run_fuzz(
    seed: int = 0,
    iterations: int = 100,
    passes: int = 3,
    lanes: Sequence[str] = tuple(LANES),
    config: GeneratorConfig = DEFAULT_CONFIG,
    fixture_dir: Optional[str] = None,
    max_fixtures: int = 5,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """The fuzz soak: seeded programs, registry lanes, three passes.

    Convergence means every (iteration, lane, pass) execution solved
    and ended bit-identical to the ideal fault-free run — which also
    makes every pass bit-identical to every other, the ``repro chaos``
    contract.  Pass-to-pass divergence with a correct ideal match is
    impossible, but is still checked independently (``nonconverged``)
    so a nondeterminism bug cannot hide behind a coincidentally-correct
    final memory digest.
    """
    lanes = tuple(lanes)
    check_lanes(lanes)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")

    def emit(line: str) -> None:
        if log is not None:
            log(line)

    outcome = FuzzOutcome(
        seed=seed, iterations=iterations, passes=passes,
        lanes=lanes, converged=True,
    )
    shrinks_left = max_fixtures

    def absorb(result: FuzzIterationResult) -> None:
        nonlocal shrinks_left
        outcome.executions += result.executions
        outcome.adversary_histogram[result.adversary] = (
            outcome.adversary_histogram.get(result.adversary, 0) + 1
        )
        failure = result.failure
        if failure is None:
            return
        outcome.converged = False
        outcome.failures.append(failure)
        emit(f"FAILURE: {failure.describe()}")
        if shrinks_left > 0:
            shrinks_left -= 1
            predicate = _failure_predicate(
                failure.lane, failure.adversary, failure.p
            )
            if predicate(failure.program, list(failure.initial)):
                shrunk, shrunk_initial = shrink(
                    failure.program, failure.initial, predicate
                )
                failure.shrunk_program = shrunk
                failure.shrunk_initial = shrunk_initial
                emit(
                    f"shrunk to {len(shrunk.steps)} step(s), "
                    f"width {shrunk.width}"
                )
            if fixture_dir is not None:
                from repro.fuzz.fixtures import dump_fixture

                path = dump_fixture(fixture_dir, failure)
                outcome.fixture_paths.append(str(path))
                emit(f"fixture written: {path}")

    for iteration in range(iterations):
        absorb(run_fuzz_iteration(seed, iteration, passes, lanes, config))
    return outcome
