"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``solve``     — run one Write-All instance and print the accounting;
* ``sweep``     — sweep N (and seeds), print the aggregate table and the
  fitted growth exponent, optionally export CSV; ``--workers`` fans the
  grid out over processes with caching/resume (``--cache-dir``,
  ``--no-resume``) and per-point ``--timeout``/``--retries``;
* ``bench``     — run registered benchmark scenarios through the
  parallel engine, check their paper claims and write a
  machine-readable ``BENCH_<tag>.json`` (exit 1 if a claim fails);
  ``--chaos-seed`` arms the engine's fault injection for the run;
* ``chaos``     — soak the engine itself under deterministic fault
  injection (worker crashes, stalls, transient errors, cache
  corruption) and assert the sweep still converges to results
  bit-identical to a fault-free serial run;
* ``fuzz``      — property-based soak of the Theorem 4.1 simulator:
  seeded random PRAM programs run through all five machine lanes under
  randomly drawn adversaries, checked bit-identical against the ideal
  fault-free PRAM over three passes; failures are delta-debugged to
  minimal replayable JSON fixtures;
* ``simulate``  — robustly execute a library PRAM program and verify it;
* ``trace``     — run a small instance and print the per-processor
  failure/restart timeline;
* ``showdown``  — the algorithms × adversaries matrix.

Adversaries are selected by name; stochastic ones take ``--fail``,
``--restart-prob`` and ``--seed``.  ``solve``, ``sweep``, ``simulate``
and ``trace`` run the machine's ``auto`` lane
(:data:`repro.pram.lanes.LANES`): the calibrated cost model picks the
numpy vector body or the scalar kernels per quiet window (scalar
without the optional numpy extra), with identical results either way.
Wall time is measured by the end-to-end benchmark
(``benchmarks/e2e``).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional, Tuple

from repro.core import (
    AccAlgorithm,
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    FaultRouting,
    SnapshotAlgorithm,
    TrivialAssignment,
    solve_write_all,
)
from repro.core.problem import WriteAllInstance
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.faults import registry as adversary_registry
from repro.metrics.tables import render_table
from repro.pram.lanes import LANES
from repro.pram.trace import Tracer, render_timeline
from repro.simulation import RobustSimulator
from repro.simulation.programs import (
    list_ranking_program,
    matvec_program,
    max_find_program,
    odd_even_sort_program,
    prefix_sum_program,
)

ALGORITHMS = {
    "trivial": TrivialAssignment,
    "W": AlgorithmW,
    "V": AlgorithmV,
    "X": AlgorithmX,
    "VX": AlgorithmVX,
    "snapshot": SnapshotAlgorithm,
    "ACC": AccAlgorithm,
    # The fault-aware Write-All variant: verifies writes by read-back
    # and certifies through an ack region, so it terminates under
    # static-mem adversaries that poison cells.
    "froute": FaultRouting,
}

#: ``--adversary`` choices — derived from the unified registry
#: (:mod:`repro.faults.registry`), the single enumeration point.
#: Already sorted.
ADVERSARIES = adversary_registry.names()

PROGRAMS = {
    "prefix-sum": prefix_sum_program,
    "max-find": max_find_program,
    "list-ranking": list_ranking_program,
    "odd-even-sort": odd_even_sort_program,
    "matvec": matvec_program,
}


def adversary_spec(args: argparse.Namespace):
    """The ``--adversary`` spec: ``--fail`` and ``--restart-prob`` reach
    only the entries that declare them."""
    try:
        return adversary_registry.spec_taking(
            args.adversary, fail=args.fail, restart_prob=args.restart_prob,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _adversary_help() -> str:
    """The ``--adversary`` help line, with each name's model tags."""
    entries = ", ".join(
        f"{name} [{'/'.join(adversary_registry.tags_for(name))}]"
        for name in ADVERSARIES
    )
    return f"named adversary (model tags in brackets): {entries}"


def _add_common(
    parser: argparse.ArgumentParser, algorithm_group: Optional[object] = None
) -> None:
    """The run flags every solving command takes.

    ``algorithm_group`` is a mutually exclusive group to hold
    ``--algorithm``; the flag's default is then None, so that an
    explicit ``--algorithm X`` counts as given.
    """
    (algorithm_group or parser).add_argument(
        "--algorithm", default=None if algorithm_group else "X",
        choices=sorted(ALGORITHMS),
    )
    parser.add_argument("--adversary", default="random",
                        choices=ADVERSARIES, metavar="NAME",
                        help=_adversary_help())
    parser.add_argument("--fail", type=_probability, default=0.1,
                        help="per-tick failure probability (stochastic)")
    parser.add_argument("--restart-prob", type=_probability, default=0.3,
                        help="per-tick restart probability (stochastic)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-ticks", type=_int_at_least(1), default=None)


#: The registry lane the solving commands run.
CLI_LANE = "auto"


def _positive_seconds(text: str) -> float:
    """``--timeout`` values: a wall-clock budget must be positive."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not seconds > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}"
        )
    return seconds


def _int_at_least(minimum: int):
    """A count flag's type: an int of at least ``minimum`` (a count
    below it would select nothing, or nothing sensible)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {text!r}"
            )
        return value

    return parse


def _probability(text: str) -> float:
    """Probability flags: a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _write_all_size(text: str) -> int:
    """``--n`` and each ``--sizes`` entry: a Write-All size, which the
    instance check requires to be a positive power of two."""
    value = _int_at_least(1)(text)
    try:
        WriteAllInstance(value, 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _size_list(text: str) -> List[int]:
    """``sweep --sizes`` values: a comma list of Write-All sizes."""
    return [_write_all_size(token.strip()) for token in text.split(",")]


def _lane_list(text: str) -> Tuple[str, ...]:
    """``fuzz --lanes`` values: a comma list of registry lane names."""
    lanes = tuple(token.strip() for token in text.split(",") if token.strip())
    if not lanes:
        raise argparse.ArgumentTypeError(f"selects no lane: {text!r}")
    unknown = [lane for lane in lanes if lane not in LANES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown lane(s): {', '.join(unknown)} "
            f"(known: {', '.join(LANES)})"
        )
    return lanes


def _scenario_selection(text: str) -> List[str]:
    """``bench --scenarios`` values: a comma list that names something
    (an empty selection would pass without checking a claim)."""
    tags = [token.strip() for token in text.split(",") if token.strip()]
    if not tags:
        raise argparse.ArgumentTypeError(f"selects no scenario: {text!r}")
    return tags


def _add_engine(parser: argparse.ArgumentParser) -> None:
    """Parallel-engine flags shared by ``sweep`` and ``bench``."""
    parser.add_argument("--workers", type=_int_at_least(1), default=None,
                        help="worker processes; 1 runs in-process "
                             "(default: in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory "
                             "(default: .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--no-resume", action="store_true",
                        help="recompute every point, overwriting cache "
                             "entries")
    parser.add_argument("--timeout", type=_positive_seconds, default=None,
                        help="per-point wall-clock timeout in seconds")
    parser.add_argument("--retries", type=_int_at_least(0), default=1,
                        help="extra attempts per timed-out/crashed point")


def _chaos_from_args(args: argparse.Namespace):
    """``bench``'s opt-in ChaosPolicy, or None (the default)."""
    if args.chaos_seed is None:
        return None
    from repro.experiments.chaos import ChaosPolicy

    return ChaosPolicy(
        seed=args.chaos_seed,
        crash=args.chaos_crash,
        stall=args.chaos_stall,
        error=args.chaos_error,
        corrupt=args.chaos_corrupt,
        stall_s=(max(4.0 * args.timeout, 2.0)
                 if args.timeout is not None else 5.0),
    )


def cmd_solve(args: argparse.Namespace) -> int:
    adversary = adversary_spec(args).build(args.seed)
    result = solve_write_all(
        ALGORITHMS[args.algorithm](), args.n, args.p, adversary=adversary,
        max_ticks=args.max_ticks, **LANES[CLI_LANE].solver_kwargs(),
    )
    print(result.summary())
    return 0 if result.solved else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        name=f"{args.algorithm}/{args.adversary}",
        algorithm=ALGORITHMS[args.algorithm],
        sizes=args.sizes,
        processors=(lambda n: n) if args.p is None else args.p,
        adversary=adversary_spec(args),
        seeds=range(args.seeds),
        max_ticks=args.max_ticks,
        lane=CLI_LANE,
    )
    use_engine = (
        args.workers is not None or args.timeout is not None
        or args.cache_dir is not None
    )
    if use_engine:
        result = run_sweep_parallel(
            spec,
            workers=args.workers,
            cache_dir=(
                None if args.no_cache
                else (args.cache_dir or ".repro-cache")
            ),
            resume=not args.no_resume,
            timeout=args.timeout,
            retries=args.retries,
            progress=lambda line: print(f"[sweep] {line}"),
        )
    else:
        result = run_sweep(spec)
    print(result.table())
    if len(args.sizes) >= 2 and result.points:
        print(f"\nfitted work exponent (worst case): "
              f"{result.fitted_exponent():.3f}")
    if use_engine:
        stats = result.stats
        print(
            f"\nengine: {stats.total} points, {stats.executed} executed, "
            f"{stats.cache_hits} cache hits "
            f"({100.0 * stats.hit_rate:.1f}% hit rate), "
            f"{stats.failed} failed, {stats.retries} retries, "
            f"{stats.wall_s:.2f}s wall"
        )
        if stats.crashes or stats.pool_restarts or stats.cache_corrupt:
            degraded = ", degraded to serial" if stats.degraded_serial else ""
            print(
                f"recovery: {stats.crashes} crash attempts, "
                f"{stats.pool_restarts} pool restarts{degraded}, "
                f"{stats.cache_corrupt} corrupt cache entries discarded"
            )
        for failure in result.failures:
            print(
                f"  FAILED (N={failure.n}, P={failure.p}, "
                f"seed={failure.seed}): {failure.kind} "
                f"after {failure.attempts} attempts"
            )
    if args.csv:
        result.export_csv(args.csv)
        print(f"wrote {args.csv}")
    solved = result.all_solved() and not getattr(result, "failures", [])
    return 0 if solved else 1


def _scenario_matches_model(scenario, model_tag: Optional[str]) -> bool:
    """Does a bench scenario measure the given fault model?"""
    return model_tag is None or model_tag in scenario.model_tags


def cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.bench import (
        SCENARIOS,
        default_scenario_tags,
        run_benchmarks,
        scenario_tags,
    )
    from repro.metrics.report import dump_report

    if args.list:
        from repro.fuzz.driver import ADVERSARY_DRAWS

        for tag in scenario_tags():
            scenario = SCENARIOS[tag]
            if not _scenario_matches_model(scenario, args.model_tag):
                continue
            heavy = "  [heavy]" if scenario.heavy else ""
            print(f"{tag:30s} {scenario.title}{heavy}  "
                  f"@{','.join(scenario.adversaries)}")
        names = (adversary_registry.names_for_tag(args.model_tag)
                 if args.model_tag else adversary_registry.names())
        print(
            f"\nadversary registry ({len(names)} names, "
            f"{len(adversary_registry.MODEL_TAGS)} model tags):"
        )
        for name in names:
            entry = adversary_registry.get(name)
            fuzz = "  [fuzzable]" if name in ADVERSARY_DRAWS else ""
            print(f"  {name:14s} [{', '.join(entry.tags)}]  "
                  f"{entry.summary}{fuzz}")
        return 0

    if args.scenarios is None:
        tags = default_scenario_tags()
    elif args.scenarios == ["all"]:
        tags = scenario_tags()
    else:
        tags = args.scenarios
    unknown = [tag for tag in tags if tag not in SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(see `repro bench --list`)"
        )
    if args.model_tag:
        tags = [tag for tag in tags
                if _scenario_matches_model(SCENARIOS[tag], args.model_tag)]
        if not tags:
            raise SystemExit(
                f"no selected scenario carries model tag "
                f"{args.model_tag!r} (see `repro bench --list "
                f"--model-tag {args.model_tag}`)"
            )
    report, by_scenario = run_benchmarks(
        tags,
        tag=args.tag,
        workers=args.workers,
        cache_dir=None if args.no_cache else (args.cache_dir
                                              or ".repro-cache"),
        resume=not args.no_resume,
        timeout=args.timeout,
        retries=args.retries,
        chaos=_chaos_from_args(args),
        progress=lambda line: print(f"[bench] {line}"),
    )
    for results in by_scenario.values():
        for result in results:
            print(result.table())
            print()
    for scenario in report["scenarios"]:
        for claim in scenario["claims"]:
            measured = claim["measured"]
            print(
                f"[claim] {'ok' if claim['ok'] else 'FAILED'} {claim['id']}: "
                f"{'incomplete' if measured is None else f'{measured:.4g}'} "
                f"{claim['op']} {claim['bound']:.4g}  ({claim['statement']})"
            )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"BENCH_{args.tag}.json")
    dump_report(report, path)
    totals = report["totals"]
    print(
        f"wrote {path}: {len(by_scenario)} scenarios, "
        f"{totals['points']} points, {totals['executed']} executed, "
        f"{totals['cache_hits']} cached, {totals['failed']} failed, "
        f"{totals['claims']} claims ({totals['claims_failed']} failed), "
        f"{totals['wall_s']:.2f}s"
    )
    return 0 if totals["failed"] == totals["claims_failed"] == 0 else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import run_soak_series

    ok, outcomes = run_soak_series(
        iterations=args.iterations,
        chaos_seed=args.chaos_seed,
        workers=args.workers,
        seeds=tuple(range(args.seeds)),
        timeout=args.timeout,
        retries=args.retries,
        crash=args.chaos_crash,
        stall=args.chaos_stall,
        error=args.chaos_error,
        corrupt=args.chaos_corrupt,
        log=lambda line: print(f"[chaos] {line}"),
    )
    converged = sum(1 for outcome in outcomes if outcome.converged)
    print(f"[chaos] {converged}/{len(outcomes)} iteration(s) converged")
    return 0 if ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.fuzz import run_fuzz
    from repro.fuzz.generator import GeneratorConfig

    lanes = tuple(LANES) if args.lanes is None else args.lanes
    config = GeneratorConfig(
        max_width=args.max_width,
        max_steps=args.max_steps,
    )
    started = time_module.perf_counter()
    outcome = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        passes=args.passes,
        lanes=lanes,
        config=config,
        fixture_dir=args.fixture_dir,
        max_fixtures=args.max_fixtures,
        log=lambda line: print(f"[fuzz] {line}"),
    )
    wall_s = time_module.perf_counter() - started
    print(f"[fuzz] {outcome.summary()}")
    print(
        f"[fuzz] adversary draws: "
        + ", ".join(
            f"{name}={count}"
            for name, count in sorted(outcome.adversary_histogram.items())
        )
        + f"; {wall_s:.2f}s wall"
    )
    return 0 if outcome.converged else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    width = args.width
    if args.program == "list-ranking":
        from repro.simulation.programs.list_ranking import list_ranking_input

        successor = list(range(1, width)) + [width - 1]
        initial, _ = list_ranking_input(successor)
        program = list_ranking_program(width)
    elif args.program == "matvec":
        program = matvec_program(width)
        initial = (
            [rng.randint(-3, 3) for _ in range(width * width)]
            + [rng.randint(-3, 3) for _ in range(width)]
            + [0] * width
        )
    else:
        program = PROGRAMS[args.program](width)
        initial = [rng.randint(0, 9) for _ in range(width)]
    adversary = adversary_spec(args).build(args.seed)
    # --max-ticks bounds the whole persistent run, or each robust phase.
    ticks = args.max_ticks
    if args.persistent:
        from repro.simulation import PersistentSimulator

        persistent = PersistentSimulator(
            p=args.p, adversary=adversary,
            **({} if ticks is None else {"max_ticks": ticks}),
        )
        result = persistent.execute(program, initial)
        status = "solved" if result.solved else "INCOMPLETE"
        print(f"{program.name} (persistent): {status}; "
              f"total S={result.total_work}, "
              f"|F|={result.total_pattern_size}, "
              f"generations={result.generations}")
        print("memory head:", result.memory[: min(16, len(result.memory))])
        return 0 if result.solved else 1
    simulator = RobustSimulator(
        p=args.p, algorithm=ALGORITHMS[args.algorithm or "X"](),
        adversary=adversary,
        **({} if ticks is None else {"max_ticks_per_phase": ticks}),
        **LANES[CLI_LANE].solver_kwargs(),
    )
    result = simulator.execute(program, initial)
    status = "solved" if result.solved else "INCOMPLETE"
    print(f"{program.name}: {status}; total S={result.total_work}, "
          f"|F|={result.total_pattern_size}, "
          f"max per-step sigma={result.max_step_overhead_ratio:.2f}")
    print("memory head:", result.memory[: min(16, len(result.memory))])
    return 0 if result.solved else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.faults import UnionAdversary

    tracer = Tracer()
    adversary = UnionAdversary([tracer, adversary_spec(args).build(args.seed)])
    result = solve_write_all(
        ALGORITHMS[args.algorithm](), args.n, args.p, adversary=adversary,
        max_ticks=args.max_ticks, **LANES[CLI_LANE].solver_kwargs(),
    )
    print(result.summary())
    print()
    print(render_timeline(tracer, result.ledger, width=args.width))
    return 0 if result.solved else 1


#: ``showdown``'s rows: one adversary per row, seeded with ``--seed``.
SHOWDOWN = (
    adversary_registry.spec("none"),
    adversary_registry.spec("crash", fail=0.05),
    adversary_registry.spec("random"),
    adversary_registry.spec("thrashing"),
    adversary_registry.spec("halving"),
)


def cmd_showdown(args: argparse.Namespace) -> int:
    names = ["W", "V", "X", "VX"]
    rows = []
    for spec in SHOWDOWN:
        adversary = spec.build(args.seed)
        row = [spec.name]
        for name in names:
            result = solve_write_all(
                ALGORITHMS[name](), args.n, args.p, adversary=adversary,
                max_ticks=args.max_ticks,
            )
            row.append(result.completed_work if result.solved else "DNF")
        rows.append(row)
    print(render_table(["adversary"] + names, rows,
                       title=f"completed work S at N={args.n}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Restartable fail-stop PRAM reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run one Write-All instance")
    solve.add_argument("--n", type=_write_all_size, default=256)
    solve.add_argument("--p", type=_int_at_least(1), default=None)
    _add_common(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = commands.add_parser("sweep", help="sweep sizes and seeds")
    sweep.add_argument("--sizes", type=_size_list, default="32,64,128")
    sweep.add_argument("--p", type=_int_at_least(1), default=None,
                       help="fixed P (default: P = N)")
    sweep.add_argument("--seeds", type=_int_at_least(1), default=3,
                       help="seeds per size: 0, 1, ..., this - 1")
    sweep.add_argument("--csv", default=None)
    _add_engine(sweep)
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    bench = commands.add_parser(
        "bench",
        help="run benchmark scenarios, write BENCH_<tag>.json",
    )
    bench.add_argument("--scenarios", default=None,
                       type=_scenario_selection,
                       help="comma-separated scenario tags; 'all' for "
                            "every registered scenario (default: the "
                            "non-heavy set); every claim of every "
                            "selected scenario is checked")
    bench.add_argument("--list", action="store_true",
                       help="list registered scenarios and the adversary "
                            "registry, then exit")
    bench.add_argument("--model-tag", default=None,
                       choices=adversary_registry.MODEL_TAGS,
                       help="restrict to scenarios (and, with --list, "
                            "registry entries) exercising this fault "
                            "model")
    bench.add_argument("--tag", default="local",
                       help="report tag: writes BENCH_<tag>.json")
    bench.add_argument("--out", default="benchmarks/results",
                       help="output directory for the JSON report")
    _add_engine(bench)
    bench.add_argument("--chaos-seed", type=int, default=None,
                       help="enable deterministic fault injection with "
                            "this seed (soak-testing only; default: off)")
    bench.add_argument("--chaos-crash", type=_probability, default=0.05,
                       help="injected worker-crash probability per "
                            "attempt (with --chaos-seed)")
    bench.add_argument("--chaos-stall", type=_probability, default=0.05,
                       help="injected stall probability per attempt "
                            "(with --chaos-seed)")
    bench.add_argument("--chaos-error", type=_probability, default=0.05,
                       help="injected transient-error probability per "
                            "attempt (with --chaos-seed)")
    bench.add_argument("--chaos-corrupt", type=_probability, default=0.05,
                       help="cache-entry corruption probability per "
                            "point (with --chaos-seed)")
    bench.set_defaults(func=cmd_bench)

    chaos = commands.add_parser(
        "chaos",
        help="soak the sweep engine under deterministic fault injection",
    )
    chaos.add_argument("--workers", type=_int_at_least(1), default=2,
                       help="worker processes for the chaos pass")
    chaos.add_argument("--seeds", type=_int_at_least(1), default=4,
                       help="sweep seeds per size (grid is 4 sizes x "
                            "this, 16 points by default)")
    chaos.add_argument("--iterations", type=_int_at_least(1), default=1,
                       help="independent soak iterations (chaos seeds "
                            "are spaced 1000 apart)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="base chaos seed (stepped deterministically "
                            "until the plan covers crash+stall+corrupt)")
    chaos.add_argument("--timeout", type=_positive_seconds, default=2.0,
                       help="per-point wall-clock budget; injected "
                            "stalls spin past it")
    chaos.add_argument("--retries", type=_int_at_least(0), default=8,
                       help="extra attempts per faulted point (keep "
                            "above the per-point injection cap)")
    chaos.add_argument("--chaos-crash", type=_probability, default=0.15,
                       help="worker-crash injection rate per attempt")
    chaos.add_argument("--chaos-stall", type=_probability, default=0.10,
                       help="stall injection rate per attempt")
    chaos.add_argument("--chaos-error", type=_probability, default=0.10,
                       help="transient-error injection rate per attempt")
    chaos.add_argument("--chaos-corrupt", type=_probability, default=0.25,
                       help="cache-corruption injection rate per point")
    chaos.set_defaults(func=cmd_chaos)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzz of the Theorem 4.1 simulator "
             "(random programs x lanes x adversaries)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzz seed; every draw is a pure function "
                           "of it")
    fuzz.add_argument("--iterations", type=_int_at_least(1), default=200,
                      help="generated programs per run")
    fuzz.add_argument("--passes", type=_int_at_least(1), default=3,
                      help="bit-identical convergence passes per "
                           "program (the repro-chaos contract)")
    fuzz.add_argument("--lanes", type=_lane_list, default=None,
                      help="comma-separated lanes to exercise "
                           "(default: all registered lanes)")
    fuzz.add_argument("--max-width", type=_int_at_least(1), default=5,
                      help="max simulated processors per program")
    fuzz.add_argument("--max-steps", type=_int_at_least(1), default=4,
                      help="max steps per program")
    fuzz.add_argument("--fixture-dir", default="tests/fuzz/fixtures",
                      help="where shrunk failure fixtures land "
                           "(loaded forever after by "
                           "tests/fuzz/test_fixtures.py)")
    fuzz.add_argument("--max-fixtures", type=_int_at_least(0), default=5,
                      help="cap on shrunk fixtures per run")
    fuzz.set_defaults(func=cmd_fuzz)

    simulate = commands.add_parser(
        "simulate", help="robustly execute a PRAM program"
    )
    simulate.add_argument("--program", default="prefix-sum",
                          choices=sorted(PROGRAMS))
    simulate.add_argument("--width", type=_int_at_least(1), default=16)
    simulate.add_argument("--p", type=_int_at_least(1), default=4)
    # The persistent executor runs generational X: --algorithm is a
    # usage error beside it.
    executor = simulate.add_mutually_exclusive_group()
    executor.add_argument("--persistent", action="store_true",
                          help="use the generational no-reset executor "
                               "(generational X; takes no --algorithm)")
    _add_common(simulate, executor)
    simulate.set_defaults(func=cmd_simulate)

    trace = commands.add_parser("trace", help="print a failure timeline")
    trace.add_argument("--n", type=_write_all_size, default=16)
    trace.add_argument("--p", type=_int_at_least(1), default=8)
    trace.add_argument("--width", type=_int_at_least(1), default=72)
    _add_common(trace)
    trace.set_defaults(func=cmd_trace)

    showdown = commands.add_parser(
        "showdown", help="algorithms x adversaries matrix"
    )
    showdown.add_argument("--n", type=_write_all_size, default=64)
    showdown.add_argument("--p", type=_int_at_least(1), default=None)
    showdown.add_argument("--seed", type=int, default=0)
    showdown.add_argument("--max-ticks", type=_int_at_least(1),
                          default=2_000_000)
    showdown.set_defaults(func=cmd_showdown)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p", None) is None and hasattr(args, "n"):
        args.p = args.n
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
