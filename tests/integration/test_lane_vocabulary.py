"""One lane vocabulary above the solver.

Above ``solve_write_all`` a machine lane is only a registry name
(:data:`repro.pram.lanes.LANES`): sweep specs, point specs, cache keys
and the CLI's ``--lane`` carry the name, and ``Lane.solver_kwargs()``
is the one place it turns back into switches.  These tests hold every
layer to that: the name reaches the solver as its registry lane's
switches, default-lane cache keys keep their bytes, the removed switch
flags and the removed ``perf`` command are usage errors, and every lane
of the lane matrix measures the model the golden report pins for it.
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
from repro.experiments.factories import NamedAdversary, SparseSchedule
from repro.experiments.parallel import expand_spec
from repro.metrics.report import load_report
from repro.pram.lanes import (
    CLI_LANES,
    LANES,
    available_lane_names,
    lane_available,
)

GOLDEN = (Path(__file__).resolve().parents[2] / "benchmarks" / "results"
          / "BENCH_golden.json")

LANE_SWITCHES = ("fast_path", "fast_forward", "compiled", "vectorized")

#: ``--lane`` choices whose registry lane runs here (vec needs numpy).
CLI_CHOICES = [
    choice for choice, lane in CLI_LANES.items()
    if lane in available_lane_names()
]


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
        processors=8, adversary=SparseSchedule(), seeds=(3,),
        max_ticks=200_000, lane=lane,
    )


def model_fields(point):
    return (point.solved, point.completed_work, point.charged_work,
            point.pattern_size, point.parallel_time)


@pytest.mark.parametrize("lane", available_lane_names())
def test_sweep_lane_measures_its_registry_lane(monkeypatch, lane):
    direct = solve_write_all(
        AlgorithmW(), 256, 8, adversary=SparseSchedule()(3),
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

#: Default-lane point keys computed before lanes were names; the key
#: material of the default lane must never move.
CLI_POINT = ("X/random", AlgorithmX, 64, 64, 0,
             NamedAdversary("random", 0.1, 0.3), None, None)
CLI_POINT_KEY = (
    "7ba5395a345300fb92bbec9d3c3a4fa0a61f0f32bca44c5f52b747a22ee8ee7c"
)
#: First point of A8's ``W@sched-sparse/scalar`` sweep.
A8_W_SCALAR_KEY = (
    "fcada26c5b6a74a26778c97c258cfd08eae64a785df5af46d5f378f3d6388390"
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
# CLI: --lane is the only lane flag
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("flag", ["--no-fast-forward", "--no-compiled"])
@pytest.mark.parametrize("command", ["solve", "sweep", "simulate", "trace"])
def test_removed_switch_flags_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_perf_is_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["perf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'perf'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("choice", CLI_CHOICES)
@pytest.mark.parametrize("argv, owner, name", [
    (["solve", "--algorithm", "W", "--n", "64", "--p", "8",
      "--adversary", "sched-sparse"], cli, "solve_write_all"),
    (["trace", "--algorithm", "W", "--n", "16", "--p", "4",
      "--adversary", "sched-sparse"], cli, "solve_write_all"),
    (["sweep", "--algorithm", "W", "--sizes", "64", "--p", "8",
      "--seeds", "1", "--adversary", "sched-sparse"],
     core_runner, "solve_write_all"),
    (["simulate", "--width", "8", "--p", "2", "--adversary", "none"],
     cli, "RobustSimulator"),
], ids=["solve", "trace", "sweep", "simulate"])
def test_lane_choice_reaches_the_solver(monkeypatch, capsys, choice, argv,
                                        owner, name):
    calls = spy(monkeypatch, owner, name)
    assert main(argv + ["--lane", choice]) == 0
    assert calls
    assert {lane_of(call) for call in calls} == {CLI_LANES[choice]}


# --------------------------------------------------------------------- #
# the lane matrix: every lane measures the model the golden pins for it
# --------------------------------------------------------------------- #

#: (--lane choice, adversary, N, P, reference lane solved): lane matrix
#: (``A9_lane_matrix``) configurations.  Each is solved on its choice's
#: lane, the ``fast`` lane and the ``noff`` and ``nokernel`` ablations,
#: and on the reference lane where the row says so.
LANE_MATRIX_CONFIGURATIONS = [
    ("scalar", "none", 512, 32, True),
    ("vec", "none", 512, 32, False),
    ("auto", "sched-sparse", 256, 8, False),
]

#: (algorithm, configuration) pairs: trivial, W and X on every lane;
#: V and VX, which ship no vector program, on the scalar lanes only.
LANE_MATRIX_CASES = [
    (algorithm, row)
    for algorithm in ("trivial", "W", "X", "V", "VX")
    for row in LANE_MATRIX_CONFIGURATIONS
    if algorithm not in ("V", "VX") or row[0] == "scalar"
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
    "algorithm, choice, adversary, n, p, with_reference",
    [(algorithm, *row) for algorithm, row in LANE_MATRIX_CASES],
    ids=[f"{row[0]}-{row[1]}-{algorithm}"
         for algorithm, row in LANE_MATRIX_CASES],
)
def test_lane_matrix_lanes_match_the_golden(
        algorithm, choice, adversary, n, p, with_reference):
    if not lane_available(CLI_LANES[choice]):
        pytest.skip("the vec lane needs the numpy extra")
    lanes = {"fast", "noff", "nokernel", CLI_LANES[choice]}
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
            adversary=None if spec.adversary is None else spec.adversary(seed),
            max_ticks=spec.max_ticks, **LANES[spec.lane].solver_kwargs(),
        )
        assert expected[spec.lane] == (
            result.solved, result.completed_work, result.charged_work,
            result.pattern_size, result.ledger.ticks,
        ), spec.lane
