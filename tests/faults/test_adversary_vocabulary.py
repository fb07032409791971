"""Every surface's adversaries, built through the registry, equal the
constructions the surfaces wrote out from the classes before the
registry named them all.

Each table below writes an adversary out from its classes.  The tests
build the same adversary through :mod:`repro.faults.registry` and
compare the two pickles for seeds 0 to 4, so a parameter that reaches
the wrong constructor argument, or a default that moved, fails here.
"""

import argparse
import pickle
import re

import pytest

from repro.faults import (
    AccStalker,
    BurstAdversary,
    FailureBudgetAdversary,
    HalvingAdversary,
    IterationStarver,
    NoFailures,
    NoRestartAdversary,
    RandomAdversary,
    ScheduledAdversary,
    SpeedClassAdversary,
    StalkingAdversaryX,
    StaticFaultAdversary,
    ThrashingAdversary,
    registry,
)

SEEDS = range(5)


def sparse(seed, victims=4):
    """Eight fail/restart pairs 400 ticks apart from tick 50 + seed,
    each victim down for 7 ticks."""
    schedule = {}
    for k in range(8):
        tick = 50 + 400 * k + seed
        schedule[tick] = ([k % victims], [])
        schedule[tick + 7] = ([], [k % victims])
    return ScheduledAdversary(schedule)


#: name -> (seed, fail, restart_prob) -> adversary: what each registry
#: name built from the CLI's ``--fail``/``--restart-prob`` (0.1 and 0.3
#: by default; ``tests/integration/test_benchmark_entry_points.py``
#: pins those defaults).
BY_NAME = {
    "none": lambda s, f, r: NoFailures(),
    "random": lambda s, f, r: RandomAdversary(f, r, seed=s),
    "crash": lambda s, f, r: NoRestartAdversary(RandomAdversary(f, seed=s)),
    "thrashing": lambda s, f, r: ThrashingAdversary(),
    "halving": lambda s, f, r: HalvingAdversary(),
    "stalker": lambda s, f, r: StalkingAdversaryX(),
    "starver": lambda s, f, r: IterationStarver(),
    "acc-stalker": lambda s, f, r: AccStalker(),
    "burst": lambda s, f, r: BurstAdversary(period=3, fraction=0.5,
                                            downtime=1),
    "sched-sparse": lambda s, f, r: sparse(s),
    "static-proc": lambda s, f, r: StaticFaultAdversary(dead_frac=0.25,
                                                        seed=s),
    "static-mem": lambda s, f, r: StaticFaultAdversary(
        dead_frac=0.25, mem_frac=0.25, seed=s
    ),
    "speed-classes": lambda s, f, r: SpeedClassAdversary(seed=s),
}


def same(built, expected):
    return pickle.dumps(built) == pickle.dumps(expected)


def churn(fail, restart_prob):
    return lambda s: RandomAdversary(fail, restart_prob, seed=s)


def crash(fail):
    return lambda s: NoRestartAdversary(RandomAdversary(fail, seed=s))


def fixed(cls, *args, **kwargs):
    return lambda s: cls(*args, **kwargs)


#: scenario tag -> [(sweep-name pattern, seed -> adversary)]: every
#: bench sweep's adversary.  A pattern's groups are passed on after
#: the seed (only E5's budget has one).
BENCH = {
    "E1_thrashing": [("X/thrashing", fixed(ThrashingAdversary))],
    "E2_thm31_lower_bound": [(".*/halving", fixed(HalvingAdversary))],
    "E3_thm32_snapshot": [
        ("snapshot/halving", fixed(HalvingAdversary)),
        ("snapshot/free", fixed(NoFailures)),
    ],
    "E4_lemma42_v_failstop": [("V/crash-(?:dense|slack)", crash(0.02))],
    "E5_thm43_v_restarts": [(r"V/budget-(\d+)", lambda s, budget:
                             FailureBudgetAdversary(
                                 RandomAdversary(0.25, 0.4, seed=s),
                                 int(budget)))],
    "E6_lemma44_x_termination": [
        ("X/no-failures", fixed(NoFailures)),
        ("X/random-10", churn(0.1, 0.3)),
        ("X/random-30", churn(0.3, 0.5)),
        ("X/bursts", fixed(BurstAdversary, 2, 0.7, 1)),
        ("X/thrashing", fixed(ThrashingAdversary)),
        ("X/sequential", fixed(NoFailures)),
    ],
    "E7_thm48_x_stalking": [("X/stalker", fixed(StalkingAdversaryX))],
    "E8_thm47_x_sublinear": [(r"X/stalker-p\d+",
                              fixed(StalkingAdversaryX))],
    "E9_thm49_combined": [
        ("(?:V|X|VX)/crash2", crash(0.02)),
        ("(?:V|X|VX)/restarts10", churn(0.1, 0.3)),
        ("(?:V|X|VX)/thrashing", fixed(ThrashingAdversary)),
        ("V/starver", fixed(IterationStarver)),
        ("(?:X|VX)/stalker", fixed(StalkingAdversaryX)),
    ],
    "E10_corollaries_sigma": [
        (r"VX/F<=P", lambda s: FailureBudgetAdversary(
            ThrashingAdversary(), 128)),
        (r"VX/F~NlogN", lambda s: FailureBudgetAdversary(
            ThrashingAdversary(), 3584)),
        (r"VX/F~N\^1\.6", lambda s: FailureBudgetAdversary(
            ThrashingAdversary(), 9408)),
    ],
    "E14_lemma45_oversubscription": [
        (r"X/burst-x\d", fixed(BurstAdversary, 2, 0.8, 1)),
        (r"X/free-x\d", fixed(NoFailures)),
    ],
    "A1_x_routing": [("X/routing-.*", fixed(BurstAdversary, 2, 0.9, 1))],
    "A2_v_chunk": [(r"V/chunk-\d+", crash(0.02))],
    "A3_fairness": [("VX/window-.*", fixed(IterationStarver))],
    "A4_x_failstop_conjecture": [
        ("X/norestart-halving",
         lambda s: NoRestartAdversary(HalvingAdversary())),
        ("X/norestart-stalker",
         lambda s: NoRestartAdversary(StalkingAdversaryX())),
    ],
    "A6_w_vs_v": [
        ("(?:V|W)/free", fixed(NoFailures)),
        ("(?:V|W)/churn", churn(0.08, 0.3)),
    ],
    "A7_horizon_sparse": [("X/sched-sparse/(?:ff|noff)", sparse)],
    "A8_adaptive_smallsize": [(".*@sched-sparse/(?:scalar|auto)", sparse)],
    "A9_lane_matrix": [
        (".*@none/.*", lambda s: None),
        (".*@sched-sparse/.*", lambda s: sparse(s, victims=8)),
    ],
    "R1_static_proc": [("(?:X|froute)/static-proc", lambda s:
                        StaticFaultAdversary(dead_frac=0.25, seed=s))],
    "R2_static_mem_routing": [
        ("froute/static-mem", lambda s: StaticFaultAdversary(
            dead_frac=0.25, mem_frac=0.25, seed=s)),
        ("froute/static-mem-only", lambda s: StaticFaultAdversary(
            dead_frac=0.0, mem_frac=0.25, seed=s)),
    ],
    "R3_pmem_checkpoint": [(r"ppm/ck-\d+", churn(0.05, 0.4))],
    "R4_hetero_speed": [
        ("X/speed-classes", lambda s: SpeedClassAdversary(seed=s)),
        ("X/uniform", fixed(NoFailures)),
    ],
}


def bench_sweeps():
    from repro.experiments.bench import scenario_tags, get_scenario

    return [(tag, spec) for tag in scenario_tags()
            for spec in get_scenario(tag).specs]


def test_the_table_covers_every_scenario():
    from repro.experiments.bench import scenario_tags

    assert sorted(BENCH) == sorted(scenario_tags())


@pytest.mark.parametrize("tag, spec", bench_sweeps(),
                         ids=lambda value: getattr(value, "name", value))
def test_bench_sweeps_build_what_the_factories_built(tag, spec):
    [(match, construct)] = [
        (match, construct) for pattern, construct in BENCH[tag]
        for match in [re.fullmatch(pattern, spec.name)] if match
    ]
    for seed in SEEDS:
        assert same(spec.adversary_for(seed),
                    construct(seed, *match.groups())), (spec.name, seed)


@pytest.mark.parametrize("name", registry.names())
def test_cli_flags_build_what_they_built(name):
    from repro.cli import adversary_spec

    flags = argparse.Namespace(adversary=name, fail=0.2, restart_prob=0.4)
    for seed in SEEDS:
        assert same(adversary_spec(flags).build(seed),
                    BY_NAME[name](seed, 0.2, 0.4)), (name, seed)


def test_showdown_rows_build_what_it_built():
    from repro.cli import SHOWDOWN

    assert [spec.name for spec in SHOWDOWN] == [
        "none", "crash", "random", "thrashing", "halving",
    ]
    for seed in SEEDS:
        assert [pickle.dumps(spec.build(seed)) for spec in SHOWDOWN] == [
            pickle.dumps(adversary) for adversary in (
                NoFailures(),
                NoRestartAdversary(RandomAdversary(0.05, seed=seed)),
                RandomAdversary(0.1, 0.3, seed=seed),
                ThrashingAdversary(),
                HalvingAdversary(),
            )
        ]


def test_chaos_soak_churn_is_what_it_was():
    from repro.experiments.chaos import SOAK_ADVERSARY

    for seed in SEEDS:
        assert same(SOAK_ADVERSARY.build(seed),
                    RandomAdversary(0.15, 0.4, seed=seed))


def test_fuzz_draws_build_through_the_registry():
    # A draw's probabilities reach only the entries that declare them:
    # its adversary is the CLI's for the same name and flags.
    from repro.fuzz.driver import draw_adversary_spec

    for iteration in range(40):
        draw = draw_adversary_spec(0, iteration)
        expected = BY_NAME[draw.name](draw.seed, draw.fail,
                                      draw.restart_prob)
        assert same(draw.build(), expected), draw
