"""One lane vocabulary above the solver.

Above ``solve_write_all`` a machine lane is only a registry name
(:data:`repro.pram.lanes.LANES`): sweep specs, point specs and cache
keys carry the name, and ``Lane.solver_kwargs()`` is the one place it
turns back into switches.  These tests hold every layer to that: the
name reaches the solver as its registry lane's switches, default-lane
cache keys keep their bytes, the CLI's solving commands run the
``auto`` lane, with or without numpy, the removed lane and switch
flags and the removed ``perf`` command are usage errors, and every
lane of the lane matrix measures the model the golden report pins for
it.
"""

from pathlib import Path

import pytest

import repro.core.runner as core_runner
from repro import cli
from repro.cli import main
from repro.core import AlgorithmW, AlgorithmX, solve_write_all
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments.bench import get_scenario
from repro.experiments.cache import point_key
from repro.faults import registry
from repro.experiments.parallel import expand_spec
from repro.metrics.report import load_report
from repro.pram import vectorized as vectorized_module
from repro.pram.lanes import LANES
from tests.conftest import vector_windows_forced

GOLDEN = (Path(__file__).resolve().parents[2] / "benchmarks" / "results"
          / "BENCH_golden.json")

LANE_SWITCHES = ("fast_path", "fast_forward", "compiled", "vectorized")


def spy(monkeypatch, owner, name):
    """Record the lane switches of every call to ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def record(*args, **kwargs):
        calls.append({key: kwargs[key] for key in LANE_SWITCHES})
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


def lane_of(switches):
    """The registry lane whose switches are ``switches``."""
    [name] = [
        name for name, lane in LANES.items()
        if lane.solver_kwargs() == switches
    ]
    return name


# --------------------------------------------------------------------- #
# sweeps: SweepSpec(lane=...) measures its registry lane
# --------------------------------------------------------------------- #


def one_point_spec(lane):
    return SweepSpec(
        name=f"lane-{lane}", algorithm=AlgorithmW, sizes=(256,),
        processors=8, adversary=registry.spec("sched-sparse"), seeds=(3,),
        max_ticks=200_000, lane=lane,
    )


def model_fields(point):
    return (point.solved, point.completed_work, point.charged_work,
            point.pattern_size, point.parallel_time)


@pytest.mark.parametrize("lane", LANES)
def test_sweep_lane_measures_its_registry_lane(monkeypatch, lane):
    direct = solve_write_all(
        AlgorithmW(), 256, 8, adversary=registry.build("sched-sparse", seed=3),
        max_ticks=200_000, **LANES[lane].solver_kwargs(),
    )
    expected = (direct.solved, direct.completed_work, direct.charged_work,
                direct.pattern_size, direct.parallel_time)
    calls = spy(monkeypatch, core_runner, "solve_write_all")
    spec = one_point_spec(lane)
    [serial] = run_sweep(spec).points
    [engine] = run_sweep_parallel(spec, workers=1).points
    assert model_fields(serial) == expected
    assert model_fields(engine) == expected
    assert [lane_of(call) for call in calls] == [lane, lane]


# --------------------------------------------------------------------- #
# cache keys
# --------------------------------------------------------------------- #

#: Default-lane point keys, pinned: naming the default lane must not
#: move them.
CLI_POINT = ("X/random", AlgorithmX, 64, 64, 0,
             registry.spec("random"), None, None)
CLI_POINT_KEY = (
    "28ad20c13e563dfcd809675c0a518b6b11ab5eaee864d0f34abc8bb4b6b65a34"
)
#: First point of A8's ``W@sched-sparse/scalar`` sweep.
A8_W_SCALAR_KEY = (
    "c66646ef37f08e1775ac6f7ad32e7b3677746f05ac1c8ecca54e0b3af9ab11c4"
)


def test_default_lane_keys_keep_their_bytes():
    assert point_key(*CLI_POINT) == CLI_POINT_KEY
    assert point_key(*CLI_POINT, lane="fast") == CLI_POINT_KEY
    specs = {spec.name: spec
             for spec in get_scenario("A8_adaptive_smallsize").specs}
    point = expand_spec(specs["W@sched-sparse/scalar"])[0]
    assert point.lane == "fast"
    assert point.cache_key() == A8_W_SCALAR_KEY


def test_registry_lanes_key_pairwise_distinct():
    keys = {point_key(*CLI_POINT, lane=name) for name in LANES}
    assert len(keys) == len(LANES)


# --------------------------------------------------------------------- #
# CLI: the solving commands run the auto lane, and no flag picks another
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("flag", [
    ["--no-fast-forward"], ["--no-compiled"], ["--lane", "vec"],
], ids=["--no-fast-forward", "--no-compiled", "--lane"])
@pytest.mark.parametrize("command", ["solve", "sweep", "simulate", "trace"])
def test_removed_switch_flags_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


def test_fuzz_names_the_registry_lanes_for_an_unknown_lane(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--iterations", "1", "--lanes", "fast,vec"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (
        "argument --lanes: unknown lane(s): vec "
        "(known: fast, noff, nokernel, auto, reference)"
    ) in err
    assert "Traceback" not in err


def test_perf_is_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["perf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'perf'" in err
    assert "Traceback" not in err


#: One small run of each solving command, and the entry point it
#: solves through.
COMMANDS = {
    "solve": (["solve", "--algorithm", "W", "--n", "64", "--p", "8",
               "--adversary", "sched-sparse"], cli, "solve_write_all"),
    "trace": (["trace", "--algorithm", "W", "--n", "16", "--p", "4",
               "--adversary", "sched-sparse"], cli, "solve_write_all"),
    "sweep": (["sweep", "--algorithm", "W", "--sizes", "64", "--p", "8",
               "--seeds", "1", "--adversary", "sched-sparse"],
              core_runner, "solve_write_all"),
    "simulate": (["simulate", "--width", "8", "--p", "2",
                  "--adversary", "none"], cli, "RobustSimulator"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_run_the_auto_lane(monkeypatch, capsys, command):
    argv, owner, name = COMMANDS[command]
    calls = spy(monkeypatch, owner, name)
    assert main(argv) == 0
    assert calls
    assert {lane_of(call) for call in calls} == {"auto"}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_run_without_numpy(monkeypatch, capsys, command):
    # The auto lane needs no numpy extra: with the module hidden each
    # command runs scalar even where dispatch would pick every vector
    # window, and prints what it prints with numpy.
    argv = COMMANDS[command][0]
    with vector_windows_forced():
        assert main(argv) == 0
        with_numpy = capsys.readouterr().out
        monkeypatch.setattr(vectorized_module, "HAVE_NUMPY", False)
        monkeypatch.setattr(vectorized_module, "_np", None)
        assert main(argv) == 0
    assert capsys.readouterr().out == with_numpy


# --------------------------------------------------------------------- #
# the lane matrix: every lane measures the model the golden pins for it
# --------------------------------------------------------------------- #

#: (algorithm, lane, adversary, N, P, reference lane solved): lane
#: matrix (``A9_lane_matrix``) configurations.  Each is solved on its
#: lane, the ``fast`` lane and the ``noff`` and ``nokernel`` ablations,
#: and on the reference lane where the row says so.  trivial and W,
#: which ship vector programs, run on ``auto``; X, V and VX on the
#: scalar lanes only.
LANE_MATRIX_CASES = [
    ("trivial", "auto", "none", 512, 32, True),
    ("trivial", "auto", "sched-sparse", 256, 8, False),
    ("W", "auto", "none", 512, 32, True),
    ("W", "auto", "sched-sparse", 256, 8, False),
    ("X", "fast", "none", 512, 32, True),
    ("X", "fast", "sched-sparse", 256, 8, False),
    ("V", "fast", "none", 512, 32, True),
    ("VX", "fast", "none", 512, 32, True),
]

MODEL_KEYS = ("solved", "S", "S_prime", "F", "ticks")


def golden_models(specs, n, p):
    """Lane -> model fields of the golden's point at (N, P) in each of
    the lane-matrix sweeps ``specs``."""
    lanes = {spec.name: spec.lane for spec in specs}
    [scenario] = [
        scenario for scenario in load_report(str(GOLDEN))["scenarios"]
        if scenario["tag"] == "A9_lane_matrix"
    ]
    return {
        lanes[sweep["name"]]: tuple(point[key] for key in MODEL_KEYS)
        for sweep in scenario["sweeps"] if sweep["name"] in lanes
        for point in sweep["points"] if (point["n"], point["p"]) == (n, p)
    }


@pytest.mark.parametrize(
    "algorithm, lane, adversary, n, p, with_reference", LANE_MATRIX_CASES,
    ids=[f"{lane}-{adversary}-{algorithm}"
         for algorithm, lane, adversary, *_ in LANE_MATRIX_CASES],
)
def test_lane_matrix_lanes_match_the_golden(
        algorithm, lane, adversary, n, p, with_reference):
    lanes = {"fast", "noff", "nokernel", lane}
    if with_reference:
        lanes.add("reference")
    specs = [
        spec for spec in get_scenario("A9_lane_matrix").specs
        if spec.name.startswith(f"{algorithm}@{adversary}/")
        and n in spec.sizes and spec.lane in lanes
    ]
    assert {spec.lane for spec in specs} == lanes
    expected = golden_models(specs, n, p)
    for spec in specs:
        [seed] = spec.seeds
        result = solve_write_all(
            spec.algorithm(), n, p,
            adversary=spec.adversary_for(seed),
            max_ticks=spec.max_ticks, **LANES[spec.lane].solver_kwargs(),
        )
        assert expected[spec.lane] == (
            result.solved, result.completed_work, result.charged_work,
            result.pattern_size, result.ledger.ticks,
        ), spec.lane
