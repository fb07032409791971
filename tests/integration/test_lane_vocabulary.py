"""One lane vocabulary above the solver.

Above ``solve_write_all`` a machine lane is only a registry name
(:data:`repro.pram.lanes.LANES`): sweep specs, point specs, cache keys,
the CLI's ``--lane`` and the perf legs carry the name, and
``Lane.solver_kwargs()`` is the one place it turns back into switches.
These tests hold every layer to that: the name reaches the solver as
its registry lane's switches, default-lane cache keys keep their bytes,
the removed switch flags are usage errors, and ``repro perf`` writes
the sweep names the committed baselines gate.
"""

import json
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
from repro.perf import micro
from repro.perf.micro import perf_report, run_comparison
from repro.pram.lanes import CLI_LANES, LANES, available_lane_names
from repro.pram.vectorized import HAVE_NUMPY

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

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
@pytest.mark.parametrize(
    "command", ["solve", "sweep", "simulate", "trace", "perf"]
)
def test_removed_switch_flags_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("choice", CLI_CHOICES)
def test_perf_lane_choice_times_its_lane_and_the_ablations(
        monkeypatch, capsys, choice):
    calls = spy(monkeypatch, micro, "solve_write_all")
    assert main(["perf", "--algorithm", "trivial", "--size", "256x8",
                 "--repeats", "1", "--warmup", "0", "--lane", choice]) == 0
    head = CLI_LANES[choice]
    assert lane_of(calls[0]) == head
    expected = {head, "noff", "nokernel", "reference"}
    if head != "fast" and HAVE_NUMPY:
        expected.add("fast")  # the novec leg
    assert {lane_of(call) for call in calls} == expected


# --------------------------------------------------------------------- #
# perf: the sweep names the committed baselines gate
# --------------------------------------------------------------------- #

#: (baseline file, --lane choice, adversary, N, P, reference leg timed)
#: as the CI step that regenerates each baseline runs it.
PERF_BASELINES = [
    ("BENCH_compiled_perf.json", "scalar", "none", 512, 32, True),
    ("BENCH_vector_perf.json", "vec", "none", 512, 32, False),
    ("BENCH_adaptive_perf.json", "auto", "sched-sparse", 256, 8, False),
]


def baseline_sweeps(path, prefix, n, p):
    """Sweep name -> (model fields, speedup fields) of one configuration."""
    with open(path) as handle:
        report = json.load(handle)
    found = {}
    for sweep in report["scenarios"][0]["sweeps"]:
        if sweep["name"].split("/")[0] != prefix:
            continue
        for point in sweep["points"]:
            if (point["n"], point["p"]) == (n, p):
                found[sweep["name"]] = summarize(point)
    return found


def summarize(point):
    model = tuple(point[key] for key in ("solved", "S", "S_prime", "F",
                                         "ticks"))
    return model, sorted(key for key in point if key.endswith("_speedup"))


#: (algorithm, baseline row) pairs: trivial, W and X in every baseline;
#: V only in the scalar one, which CI's ``ci_perf`` step gates.
PERF_BASELINE_CASES = [
    (algorithm, row)
    for algorithm in ("trivial", "W", "X", "V")
    for row in PERF_BASELINES
    if algorithm != "V" or row[0] == "BENCH_compiled_perf.json"
]


@pytest.mark.parametrize(
    "algorithm, baseline, choice, adversary, n, p, with_reference",
    [(algorithm, *row) for algorithm, row in PERF_BASELINE_CASES],
    ids=[f"{row[0]}-{algorithm}" for algorithm, row in PERF_BASELINE_CASES],
)
def test_perf_report_writes_the_baseline_sweeps(
        algorithm, baseline, choice, adversary, n, p, with_reference):
    if choice != "scalar" and not HAVE_NUMPY:
        pytest.skip("the novec leg needs the numpy extra")
    prefix = algorithm if adversary == "none" else f"{algorithm}@{adversary}"
    expected = baseline_sweeps(RESULTS / baseline, prefix, n, p)
    assert expected
    comparison = run_comparison(
        algorithm, n, p, repeats=1, warmup=0,
        include_baseline=with_reference, adversary=adversary,
        lane=CLI_LANES[choice],
    )
    report = perf_report([comparison], tag="unit", wall_s=0.0)
    written = {
        sweep["name"]: summarize(sweep["points"][0])
        for sweep in report["scenarios"][0]["sweeps"]
    }
    assert written == expected
