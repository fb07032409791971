"""Robust-execution fuzzing (the Theorem 4.1 correctness backstop).

Theorem 4.1 claims *any* N-processor PRAM program executes robustly on
restartable fail-stop processors.  The curated programs in
:mod:`repro.simulation.programs` witness a handful of points of that
claim; this package scales the witness the way the chaos harness
(:mod:`repro.experiments.chaos`) scaled confidence in the sweep engine:

* :mod:`repro.fuzz.generator` — a seeded generator of bounded
  update-cycle programs (reads <= 4, writes <= 2, exclusive writes,
  acyclic straight-line data dependencies) whose draws are pure
  functions of ``(seed, coordinates)`` via SHA-256, so a pinned seed
  reproduces the same program on every Python version;
* :mod:`repro.fuzz.oracle` — the ideal fault-free synchronous PRAM
  evaluator, the differential ground truth;
* :mod:`repro.fuzz.driver` — runs each generated program through
  :class:`~repro.simulation.executor.RobustSimulator` on every
  machine lane of :mod:`repro.pram.lanes` under
  randomly drawn adversaries, with inline chaos injection, under the
  same three-pass bit-identical convergence contract as ``repro
  chaos``;
* :mod:`repro.fuzz.shrinker` — delta-debugs a failing program to a
  minimal reproduction;
* :mod:`repro.fuzz.fixtures` — replayable JSON fixtures that
  ``tests/fuzz/test_fixtures.py`` loads forever after.

``python -m repro fuzz --seed N --iterations K`` is the CLI entry.
"""

from repro.fuzz.driver import (
    ADVERSARY_DRAWS,
    LANES,
    FuzzFailure,
    FuzzOutcome,
    draw_adversary_spec,
    run_fuzz,
)
from repro.fuzz.fixtures import (
    FIXTURE_FORMAT,
    dump_fixture,
    load_fixtures,
    replay_fixture,
)
from repro.fuzz.generator import (
    GeneratedProgram,
    GeneratorConfig,
    ProcessorAction,
    generate_initial_memory,
    generate_program,
    unit_draw,
)
from repro.fuzz.oracle import ideal_run
from repro.fuzz.shrinker import shrink

__all__ = [
    "ADVERSARY_DRAWS",
    "FIXTURE_FORMAT",
    "FuzzFailure",
    "FuzzOutcome",
    "GeneratedProgram",
    "GeneratorConfig",
    "LANES",
    "ProcessorAction",
    "draw_adversary_spec",
    "dump_fixture",
    "generate_initial_memory",
    "generate_program",
    "ideal_run",
    "load_fixtures",
    "replay_fixture",
    "run_fuzz",
    "shrink",
    "unit_draw",
]
