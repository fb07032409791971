"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``solve``     — run one Write-All instance and print the accounting;
* ``sweep``     — sweep N (and seeds), print the aggregate table and the
  fitted growth exponent, optionally export CSV; ``--workers`` fans the
  grid out over processes with caching/resume (``--cache-dir``,
  ``--resume``) and per-point ``--timeout``/``--retries``;
* ``bench``     — run registered benchmark scenarios through the
  parallel engine and write a machine-readable ``BENCH_<tag>.json``;
* ``chaos``     — soak the engine itself under deterministic fault
  injection (worker crashes, stalls, transient errors, cache
  corruption) and assert the sweep still converges to results
  bit-identical to a fault-free serial run;
* ``fuzz``      — property-based soak of the Theorem 4.1 simulator:
  seeded random PRAM programs run through all four machine lanes under
  randomly drawn adversaries (plus inline chaos injection), checked
  bit-identical against the ideal fault-free oracle over three passes;
  failures are delta-debugged to minimal replayable JSON fixtures;
* ``serve``     — run the distributed sweep scheduler: a daemon holding
  the work queue and the shared content-addressed result store,
  leasing points to connected workers and re-queueing leases whose
  worker dies or stalls (the paper's fail-stop/restart model applied
  to the fleet itself);
* ``worker``    — one restartable fail-stop worker: connects to a serve
  daemon, executes leased points in a sandboxed subprocess, and is
  restarted by its supervisor when it dies;
* ``perf``      — micro-benchmark the simulator core: the ``--lane``
  lane against its ablation lanes (no fast-forward, no kernels, scalar,
  the reference baseline) under selectable fault scenarios
  (``--adversary``), min-of-k timing, per-phase breakdown, optional
  cProfile capture and ``BENCH_<tag>.json`` export;
* ``simulate``  — robustly execute a library PRAM program and verify it;
* ``trace``     — run a small instance and print the per-processor
  failure/restart timeline;
* ``showdown``  — the algorithms × adversaries matrix.

Adversaries are selected by name; stochastic ones take ``--fail``,
``--restart-prob`` and ``--seed``.  ``--lane {scalar,vec,auto}`` picks
the machine lane (``solve``, ``sweep``, ``simulate``, ``trace``,
``perf``): ``vec`` opts in to the numpy batch lane (needs the optional
numpy extra — ``pip install .[numpy]``) and ``auto`` dispatches vec vs
scalar per quiet window.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

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
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments.factories import (
    NamedAdversary,
    build_named_adversary,
)
from repro.faults import (
    HalvingAdversary,
    NoFailures,
    NoRestartAdversary,
    RandomAdversary,
    ThrashingAdversary,
)
from repro.faults import registry as adversary_registry
from repro.metrics.tables import render_table
from repro.pram.lanes import CLI_LANES, LANES
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


def build_adversary(name: str, fail: float, restart_prob: float, seed: int):
    try:
        return build_named_adversary(name, fail, restart_prob, seed)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _adversary_help() -> str:
    """The ``--adversary`` help line, with each name's model tags."""
    entries = ", ".join(
        f"{name} [{'/'.join(adversary_registry.tags_for(name))}]"
        for name in ADVERSARIES
    )
    return f"named adversary (model tags in brackets): {entries}"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", default="X", choices=sorted(ALGORITHMS))
    parser.add_argument("--adversary", default="random",
                        choices=ADVERSARIES, metavar="NAME",
                        help=_adversary_help())
    parser.add_argument("--fail", type=float, default=0.1,
                        help="per-tick failure probability (stochastic)")
    parser.add_argument("--restart-prob", type=float, default=0.3,
                        help="per-tick restart probability (stochastic)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-ticks", type=int, default=None)
    _add_lane(parser)


def _add_lane(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lane", default="scalar", choices=tuple(CLI_LANES),
                        help="quiet-window lane: 'scalar' (the default) "
                             "steps processors one at a time, 'vec' "
                             "advances all P per tick as numpy array ops "
                             "(needs the optional numpy extra), 'auto' "
                             "dispatches vec vs scalar per quiet window "
                             "via the calibrated cost model (silently "
                             "scalar without numpy)")


def _lane_kwargs(args: argparse.Namespace) -> dict:
    """The solver switches of the ``--lane`` choice's registry lane."""
    return LANES[CLI_LANES[args.lane]].solver_kwargs()


def _add_engine(parser: argparse.ArgumentParser) -> None:
    """Parallel-engine flags shared by ``sweep`` and ``bench``."""
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: in-process)")
    parser.add_argument("--backend", default=None,
                        help="executor backend: 'serial', 'pool', or "
                             "'remote:host:port' (a `repro serve` "
                             "daemon; results are bit-identical across "
                             "backends). Default: chosen by --workers")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory "
                             "(default: .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--resume", action="store_true",
                        help="resume from cached points (sweep: also "
                             "switches to the engine)")
    parser.add_argument("--no-resume", action="store_true",
                        help="recompute every point, overwriting cache "
                             "entries")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point wall-clock timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts per timed-out/crashed point")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="enable deterministic fault injection with "
                             "this seed (soak-testing only; default: off)")
    parser.add_argument("--chaos-crash", type=float, default=0.05,
                        help="injected worker-crash probability per "
                             "attempt (with --chaos-seed)")
    parser.add_argument("--chaos-stall", type=float, default=0.05,
                        help="injected stall probability per attempt "
                             "(with --chaos-seed)")
    parser.add_argument("--chaos-error", type=float, default=0.05,
                        help="injected transient-error probability per "
                             "attempt (with --chaos-seed)")
    parser.add_argument("--chaos-corrupt", type=float, default=0.05,
                        help="cache-entry corruption probability per "
                             "point (with --chaos-seed)")


def _chaos_from_args(args: argparse.Namespace):
    """The opt-in ChaosPolicy for engine commands, or None (default)."""
    if getattr(args, "chaos_seed", None) is None:
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
    adversary = build_adversary(args.adversary, args.fail,
                                args.restart_prob, args.seed)
    result = solve_write_all(
        ALGORITHMS[args.algorithm](), args.n, args.p, adversary=adversary,
        max_ticks=args.max_ticks, **_lane_kwargs(args),
    )
    print(result.summary())
    return 0 if result.solved else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    sizes = [int(token) for token in args.sizes.split(",")]
    spec = SweepSpec(
        name=f"{args.algorithm}/{args.adversary}",
        algorithm=ALGORITHMS[args.algorithm],
        sizes=sizes,
        processors=(lambda n: n) if args.p is None else args.p,
        adversary=NamedAdversary(args.adversary, args.fail,
                                 args.restart_prob),
        seeds=range(args.seeds),
        max_ticks=args.max_ticks,
        lane=CLI_LANES[args.lane],
    )
    chaos = _chaos_from_args(args)
    use_engine = (
        args.workers is not None or args.resume
        or args.timeout is not None or args.cache_dir is not None
        or chaos is not None or args.backend is not None
    )
    if use_engine:
        result = run_sweep_parallel(
            spec,
            workers=args.workers,
            backend=args.backend,
            cache_dir=(
                None if args.no_cache
                else (args.cache_dir or ".repro-cache")
            ),
            resume=not args.no_resume,
            timeout=args.timeout,
            retries=args.retries,
            chaos=chaos,
            progress=lambda line: print(f"[sweep] {line}"),
        )
    else:
        result = run_sweep(spec)
    print(result.table())
    if len(sizes) >= 2 and result.points:
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
        if (stats.crashes or stats.pool_restarts or stats.cache_corrupt
                or stats.requeues):
            degraded = ", degraded to serial" if stats.degraded_serial else ""
            print(
                f"recovery: {stats.crashes} crash attempts, "
                f"{stats.pool_restarts} pool restarts{degraded}, "
                f"{stats.requeues} lease re-queues, "
                f"{stats.cache_corrupt} corrupt cache entries discarded"
            )
        if stats.injected:
            print(f"chaos injected: {stats.injected}")
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
    """Does a bench scenario exercise the given model tag?

    Scenarios name their adversaries via ``BenchScenario.adversaries``;
    legacy scenarios that predate the annotation all run KS91
    adversaries, so they match only ``fail-stop-restart``.
    """
    if model_tag is None:
        return True
    names = getattr(scenario, "adversaries", ())
    if not names:
        return model_tag == "fail-stop-restart"
    return any(
        model_tag in adversary_registry.tags_for(name) for name in names
    )


def cmd_bench(args: argparse.Namespace) -> int:
    import os

    from repro.experiments.bench import (
        EXCLUDED,
        SCENARIOS,
        default_scenario_tags,
        run_benchmarks,
        scenario_tags,
    )
    from repro.metrics.report import dump_report

    if args.list:
        for tag in scenario_tags():
            scenario = SCENARIOS[tag]
            if not _scenario_matches_model(scenario, args.model_tag):
                continue
            heavy = "  [heavy]" if scenario.heavy else ""
            adversaries = getattr(scenario, "adversaries", ())
            named = f"  @{','.join(adversaries)}" if adversaries else ""
            print(f"{tag:30s} {scenario.title}{heavy}{named}")
        print("\nbespoke (not engine-runnable):")
        for source, reason in sorted(EXCLUDED.items()):
            print(f"  {source}: {reason}")
        names = (adversary_registry.names_for_tag(args.model_tag)
                 if args.model_tag else adversary_registry.names())
        print(
            f"\nadversary registry ({len(names)} names, "
            f"{len(adversary_registry.MODEL_TAGS)} model tags):"
        )
        for name in names:
            entry = adversary_registry.get(name)
            fuzz = "  [fuzzable]" if entry.fuzzable else ""
            print(f"  {name:14s} [{', '.join(entry.tags)}]  "
                  f"{entry.summary}{fuzz}")
        return 0

    if args.scenarios is None:
        tags = default_scenario_tags()
    elif args.scenarios == "all":
        tags = scenario_tags()
    else:
        tags = [token.strip() for token in args.scenarios.split(",")
                if token.strip()]
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
        backend=args.backend,
        cache_dir=None if args.no_cache else (args.cache_dir
                                              or ".repro-cache"),
        resume=not args.no_resume,
        timeout=args.timeout,
        retries=args.retries,
        chaos=_chaos_from_args(args),
        progress=lambda line: print(f"[bench] {line}"),
    )
    for tag in tags:
        for result in by_scenario[tag]:
            print(result.table())
            print()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"BENCH_{args.tag}.json")
    dump_report(report, path)
    totals = report["totals"]
    print(
        f"wrote {path}: {len(tags)} scenarios, {totals['points']} points, "
        f"{totals['executed']} executed, {totals['cache_hits']} cached, "
        f"{totals['failed']} failed, {totals['wall_s']:.2f}s"
    )
    return 0 if totals["failed"] == 0 else 1


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
        worker_kill=args.worker_kill,
        backend=args.backend,
        log=lambda line: print(f"[chaos] {line}"),
    )
    converged = sum(1 for outcome in outcomes if outcome.converged)
    print(f"[chaos] {converged}/{len(outcomes)} iteration(s) converged")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.serve import SweepServer, fetch_status
    from repro.experiments.wire import TOKEN_ENV, WireError

    if args.status is not None:
        try:
            status = fetch_status(args.status)
        except WireError as exc:
            raise SystemExit(
                f"[serve] {args.status}: {exc} "
                f"(set {TOKEN_ENV} if the daemon requires auth)"
            )
        eta = status.get("eta_s")
        mean = status.get("mean_point_s")
        print(f"[serve] {args.status}: "
              f"{status.get('workers', 0)} worker(s) "
              f"{status.get('worker_names', [])}, "
              f"{status.get('pending', 0)} pending, "
              f"{status.get('leased', 0)} leased, "
              f"{status.get('completed', 0)} completed "
              f"({status.get('cache_hits', 0)} cache hits, "
              f"{status.get('requeues', 0)} re-queues, "
              f"{status.get('quarantined', 0)} quarantined)")
        print(f"[serve] mean point "
              f"{'n/a' if mean is None else f'{mean:.3f}s'}, "
              f"eta {'n/a' if eta is None else f'~{eta:.0f}s'}; "
              f"store: {status.get('cache_dir')}")
        return 0
    server = SweepServer(
        host=args.host, port=args.port,
        cache_dir=None if args.no_cache else (args.cache_dir
                                              or ".repro-cache"),
        lease_ttl=args.lease_ttl,
        max_lease_tries=args.max_lease_tries,
    )
    server.start()
    print(f"[serve] listening on {server.address}", flush=True)
    print(f"[serve] shared store: "
          f"{'disabled' if server.cache is None else server.cache.root}",
          flush=True)
    server.serve_forever()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.experiments.worker import run_worker

    code = run_worker(
        args.connect,
        name=args.name,
        max_restarts=args.max_restarts,
        log=lambda line: print(f"[worker] {line}", flush=True),
    )
    return 0 if code == 0 else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.fuzz import run_fuzz
    from repro.fuzz.driver import LANES
    from repro.fuzz.generator import GeneratorConfig

    if args.lanes is None:
        lanes = tuple(LANES)
    else:
        lanes = tuple(
            token.strip() for token in args.lanes.split(",") if token.strip()
        )
        unknown = [lane for lane in lanes if lane not in LANES]
        if unknown:
            raise SystemExit(
                f"unknown lane(s): {', '.join(unknown)} "
                f"(known: {', '.join(LANES)})"
            )
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
        chaos=not args.no_chaos,
        fixture_dir=args.fixture_dir,
        max_fixtures=args.max_fixtures,
        backend=args.backend,
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


def _parse_size(token: str) -> tuple:
    try:
        n_text, p_text = token.lower().split("x", 1)
        n, p = int(n_text), int(p_text)
    except ValueError:
        raise SystemExit(
            f"bad --size {token!r}: expected NxP, e.g. 4096x64"
        ) from None
    if n < 1 or p < 1:
        raise SystemExit(f"bad --size {token!r}: N and P must be positive")
    return n, p


def cmd_perf(args: argparse.Namespace) -> int:
    import os
    import time as time_module

    from repro.metrics.report import dump_report
    from repro.perf.micro import (
        DEFAULT_ADVERSARY,
        DEFAULT_ALGORITHM,
        DEFAULT_SIZE,
        describe_comparison,
        perf_report,
        run_perf,
    )
    from repro.perf.profile_hook import maybe_profile

    algorithms = args.algorithm or [DEFAULT_ALGORITHM]
    sizes = [_parse_size(token) for token in (args.size or [])]
    if not sizes:
        sizes = [DEFAULT_SIZE]
    adversaries = args.adversary or [DEFAULT_ADVERSARY]
    configurations = [
        (algorithm, n, p) for algorithm in algorithms for n, p in sizes
    ]
    started = time_module.perf_counter()
    with maybe_profile(args.profile):
        comparisons = run_perf(
            configurations,
            repeats=args.repeats,
            warmup=args.warmup,
            include_baseline=not args.no_baseline,
            adversaries=adversaries,
            lane=CLI_LANES[args.lane],
        )
    wall_s = time_module.perf_counter() - started
    for comparison in comparisons:
        print(describe_comparison(comparison))
    ratios: dict = {}
    for comparison in comparisons:
        for name, ratio in comparison.ratios().items():
            ratios.setdefault(name, []).append(ratio)
    if ratios:
        print()
    for name, values in ratios.items():
        print(f"{name}: worst {min(values):.2f}x, best {max(values):.2f}x "
              f"over {len(values)} configuration(s)")
    if args.tag is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"BENCH_{args.tag}.json")
        dump_report(perf_report(comparisons, args.tag, wall_s), path)
        print(f"wrote {path}")
    return 0


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
    adversary = build_adversary(args.adversary, args.fail,
                                args.restart_prob, args.seed)
    if args.persistent:
        from repro.simulation import PersistentSimulator

        persistent = PersistentSimulator(p=args.p, adversary=adversary)
        result = persistent.execute(program, initial)
        status = "solved" if result.solved else "INCOMPLETE"
        print(f"{program.name} (persistent): {status}; "
              f"total S={result.total_work}, "
              f"|F|={result.total_pattern_size}, "
              f"generations={result.generations}")
        print("memory head:", result.memory[: min(16, len(result.memory))])
        return 0 if result.solved else 1
    simulator = RobustSimulator(
        p=args.p, algorithm=ALGORITHMS[args.algorithm](), adversary=adversary,
        **_lane_kwargs(args),
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
    adversary = UnionAdversary([
        tracer,
        build_adversary(args.adversary, args.fail, args.restart_prob,
                        args.seed),
    ])
    result = solve_write_all(
        ALGORITHMS[args.algorithm](), args.n, args.p, adversary=adversary,
        max_ticks=args.max_ticks, **_lane_kwargs(args),
    )
    print(result.summary())
    print()
    print(render_timeline(tracer, result.ledger, width=args.width))
    return 0 if result.solved else 1


def cmd_showdown(args: argparse.Namespace) -> int:
    adversaries = [
        ("none", NoFailures()),
        ("crash", NoRestartAdversary(RandomAdversary(0.05, seed=args.seed))),
        ("random", RandomAdversary(0.1, 0.3, seed=args.seed)),
        ("thrashing", ThrashingAdversary()),
        ("halving", HalvingAdversary()),
    ]
    names = ["W", "V", "X", "VX"]
    rows = []
    for label, adversary in adversaries:
        row = [label]
        for name in names:
            result = solve_write_all(
                ALGORITHMS[name](), args.n, args.p or args.n,
                adversary=adversary, max_ticks=args.max_ticks or 2_000_000,
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
    solve.add_argument("--n", type=int, default=256)
    solve.add_argument("--p", type=int, default=None)
    _add_common(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = commands.add_parser("sweep", help="sweep sizes and seeds")
    sweep.add_argument("--sizes", default="32,64,128")
    sweep.add_argument("--p", type=int, default=None,
                       help="fixed P (default: P = N)")
    sweep.add_argument("--seeds", type=int, default=3)
    sweep.add_argument("--csv", default=None)
    _add_engine(sweep)
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    bench = commands.add_parser(
        "bench",
        help="run benchmark scenarios, write BENCH_<tag>.json",
    )
    bench.add_argument("--scenarios", default=None,
                       help="comma-separated scenario tags; 'all' for "
                            "every registered scenario (default: the "
                            "non-heavy set)")
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
    bench.set_defaults(func=cmd_bench)

    chaos = commands.add_parser(
        "chaos",
        help="soak the sweep engine under deterministic fault injection",
    )
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker processes for the chaos pass")
    chaos.add_argument("--seeds", type=int, default=4,
                       help="sweep seeds per size (grid is 4 sizes x "
                            "this, 16 points by default)")
    chaos.add_argument("--iterations", type=int, default=1,
                       help="independent soak iterations (chaos seeds "
                            "are spaced 1000 apart)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="base chaos seed (stepped deterministically "
                            "until the plan covers crash+stall+corrupt)")
    chaos.add_argument("--timeout", type=float, default=2.0,
                       help="per-point wall-clock budget; injected "
                            "stalls spin past it")
    chaos.add_argument("--retries", type=int, default=8,
                       help="extra attempts per faulted point (keep "
                            "above the per-point injection cap)")
    chaos.add_argument("--chaos-crash", type=float, default=0.15,
                       help="worker-crash injection rate per attempt")
    chaos.add_argument("--chaos-stall", type=float, default=0.10,
                       help="stall injection rate per attempt")
    chaos.add_argument("--chaos-error", type=float, default=0.10,
                       help="transient-error injection rate per attempt")
    chaos.add_argument("--chaos-corrupt", type=float, default=0.25,
                       help="cache-corruption injection rate per point")
    chaos.add_argument("--worker-kill", type=float, default=0.0,
                       help="whole-worker fail-stop injection rate per "
                            "attempt (the distributed fabric's lease "
                            "re-queue path; local backends degrade it "
                            "to an ordinary crash)")
    chaos.add_argument("--backend", default=None,
                       help="soak a specific backend: 'serial', 'pool', "
                            "'remote:host:port', or plain 'remote' to "
                            "self-host a serve daemon plus --workers "
                            "spawned CLI workers for the chaos pass")
    chaos.set_defaults(func=cmd_chaos)

    serve = commands.add_parser(
        "serve",
        help="run the distributed sweep scheduler daemon",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback; the "
                            "protocol trusts its peers — never expose "
                            "it beyond hosts you control; export "
                            "REPRO_SERVE_TOKEN on daemon and fleet to "
                            "require a shared secret at the handshake)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: OS-assigned; printed "
                            "on startup)")
    serve.add_argument("--cache-dir", default=None,
                       help="shared content-addressed result store "
                            "(default: .repro-cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="schedule without a shared store (no "
                            "dedupe across clients)")
    serve.add_argument("--lease-ttl", type=float, default=60.0,
                       help="seconds a worker may hold a lease before "
                            "it is presumed dead and the job re-queues")
    serve.add_argument("--max-lease-tries", type=int, default=5,
                       help="leases a job may burn before it is "
                            "quarantined as a crash")
    serve.add_argument("--status", default=None, metavar="HOST:PORT",
                       help="query a running daemon's status (queue "
                            "depth, fleet, ETA) and exit")
    serve.set_defaults(func=cmd_serve)

    worker = commands.add_parser(
        "worker",
        help="run one restartable fail-stop worker against a serve "
             "daemon",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="address of the serve daemon")
    worker.add_argument("--name", default=None,
                        help="worker name shown in serve status "
                             "(default: assigned by the server)")
    worker.add_argument("--max-restarts", type=int, default=None,
                        help="session restarts before the supervisor "
                             "gives up (default: unbounded — the "
                             "paper's restartable processor)")
    worker.set_defaults(func=cmd_worker)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzz of the Theorem 4.1 simulator "
             "(random programs x lanes x adversaries)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzz seed; every draw is a pure function "
                           "of it")
    fuzz.add_argument("--iterations", type=int, default=200,
                      help="generated programs per run")
    fuzz.add_argument("--passes", type=int, default=3,
                      help="bit-identical convergence passes per "
                           "program (the repro-chaos contract)")
    fuzz.add_argument("--lanes", default=None,
                      help="comma-separated lanes to exercise; lanes "
                           "this environment cannot run (vec without "
                           "the numpy extra) are skipped with a note "
                           "(default: all registered lanes)")
    fuzz.add_argument("--max-width", type=int, default=5,
                      help="max simulated processors per program")
    fuzz.add_argument("--max-steps", type=int, default=4,
                      help="max steps per program")
    fuzz.add_argument("--no-chaos", action="store_true",
                      help="disable inline chaos injection around "
                           "executions")
    fuzz.add_argument("--fixture-dir", default="tests/fuzz/fixtures",
                      help="where shrunk failure fixtures land "
                           "(loaded forever after by "
                           "tests/fuzz/test_fixtures.py)")
    fuzz.add_argument("--backend", default=None,
                      help="'serial' (default, in-process) or "
                           "'remote:HOST:PORT' to fan complete fuzz "
                           "iterations out over a repro serve fleet "
                           "(bit-identical outcome)")
    fuzz.add_argument("--max-fixtures", type=int, default=5,
                      help="cap on shrunk fixtures per run")
    fuzz.set_defaults(func=cmd_fuzz)

    perf = commands.add_parser(
        "perf",
        help="micro-benchmark the simulator core (a lane vs its "
             "ablations)",
    )
    # Choices derive from the perf module's own tables, not hand copies.
    from repro.perf.micro import PERF_ADVERSARIES, PERF_ALGORITHMS

    perf.add_argument("--algorithm", action="append", default=None,
                      choices=sorted(PERF_ALGORITHMS),
                      help="algorithm to time; repeatable (default: X)")
    perf.add_argument("--size", action="append", default=None,
                      metavar="NxP",
                      help="instance size, e.g. 4096x64; repeatable "
                           "(default: 4096x64)")
    perf.add_argument("--adversary", action="append", default=None,
                      choices=sorted(PERF_ADVERSARIES),
                      help="fault scenario to time under; repeatable "
                           "(default: none = fault-free)")
    _add_lane(perf)
    perf.add_argument("--repeats", type=int, default=5,
                      help="measured repeats per leg (min is reported)")
    perf.add_argument("--warmup", type=int, default=1,
                      help="unmeasured warmup runs per leg")
    perf.add_argument("--no-baseline", action="store_true",
                      help="skip the reference-core baseline leg")
    perf.add_argument("--profile", default=None, metavar="PATH",
                      help="capture a cProfile of the whole run to PATH")
    perf.add_argument("--tag", default=None,
                      help="also write BENCH_<tag>.json")
    perf.add_argument("--out", default="benchmarks/results",
                      help="output directory for the JSON report")
    perf.set_defaults(func=cmd_perf)

    simulate = commands.add_parser(
        "simulate", help="robustly execute a PRAM program"
    )
    simulate.add_argument("--program", default="prefix-sum",
                          choices=sorted(PROGRAMS))
    simulate.add_argument("--width", type=int, default=16)
    simulate.add_argument("--p", type=int, default=4)
    simulate.add_argument("--persistent", action="store_true",
                          help="use the generational no-reset executor")
    _add_common(simulate)
    simulate.set_defaults(func=cmd_simulate)

    trace = commands.add_parser("trace", help="print a failure timeline")
    trace.add_argument("--n", type=int, default=16)
    trace.add_argument("--p", type=int, default=8)
    trace.add_argument("--width", type=int, default=72)
    _add_common(trace)
    trace.set_defaults(func=cmd_trace)

    showdown = commands.add_parser(
        "showdown", help="algorithms x adversaries matrix"
    )
    showdown.add_argument("--n", type=int, default=64)
    showdown.add_argument("--p", type=int, default=None)
    showdown.add_argument("--seed", type=int, default=0)
    showdown.add_argument("--max-ticks", type=int, default=None)
    showdown.set_defaults(func=cmd_showdown)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.pram.vectorized import VectorizedUnavailable

    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p", None) is None and hasattr(args, "n"):
        args.p = args.n
    try:
        return args.func(args)
    except VectorizedUnavailable as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
