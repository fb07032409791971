"""The benchmark registry and the ``repro-bench/1`` report schema."""

import json
from pathlib import Path

import pytest

from repro.experiments.bench import (
    default_scenario_tags,
    get_scenario,
    run_benchmarks,
    scenario_tags,
)
from repro.experiments.chaos import ChaosPolicy
from repro.experiments.factories import SparseSchedule
from repro.experiments.parallel import expand_spec
from repro.metrics import dump_report, load_report, validate_bench_report
from repro.pram.lanes import lane_available

GOLDEN = (Path(__file__).resolve().parents[2] / "benchmarks" / "results"
          / "BENCH_golden.json")


def test_claim_ids_are_unique_and_every_scenario_checks_solved():
    tags = scenario_tags()
    assert len(tags) >= 5  # acceptance floor
    ids = [claim.id for tag in tags for claim in get_scenario(tag).all_claims()]
    assert len(ids) == len(set(ids))
    for tag in tags:
        prefix = tag.split("_", 1)[0]
        claims = get_scenario(tag).all_claims()
        assert claims[0].id == f"{prefix}.solved"
        assert all(claim.id.startswith(f"{prefix}.") for claim in claims)
    # Default set excludes the heavy (multi-minute) scenarios.
    assert set(default_scenario_tags()) <= set(tags)
    assert all(not get_scenario(t).heavy for t in default_scenario_tags())


def test_a8_pairs_each_scalar_sweep_with_an_auto_sweep():
    lanes = {spec.name: spec.lane
             for spec in get_scenario("A8_adaptive_smallsize").specs}
    assert lanes == {
        f"{label}@sched-sparse/{mode}": lane
        for label in ("X", "W", "trivial")
        for mode, lane in (("scalar", "fast"), ("auto", "auto"))
    }


def test_sweep_names_are_unique_within_each_scenario():
    # BenchScenario.evaluate keys results by sweep name: two sweeps
    # with one name would merge silently.
    for tag in scenario_tags():
        names = [spec.name for spec in get_scenario(tag).specs]
        assert len(names) == len(set(names)), tag


def test_golden_report_pins_every_registry_point():
    # CI gates `repro bench --scenarios all` against the golden, so a
    # registry point without a golden record would run ungated.  (The
    # registry builds no vec sweep without numpy.)
    golden = load_report(str(GOLDEN))
    recorded = {
        (scenario["tag"], sweep["name"], point["n"], point["p"],
         point["seed"])
        for scenario in golden["scenarios"]
        for sweep in scenario["sweeps"]
        for point in sweep["points"]
    }
    unpinned = [
        (tag, spec.name, n, p, seed)
        for tag in scenario_tags()
        for spec in get_scenario(tag).specs
        for n, p, seed in spec.points()
        if (tag, spec.name, n, p, seed) not in recorded
    ]
    assert unpinned == []
    assert golden["totals"]["claims_failed"] == 0


def test_golden_report_gates_itself():
    # Every point record keys cleanly and every adversary the golden
    # annotates is registered, so the gate's only findings against a
    # faithful run are model-field differences.
    from repro.perf.regression import compare_reports

    golden = load_report(str(GOLDEN))
    report = compare_reports(golden, golden)
    assert report.ok
    assert report.findings == []
    assert report.compared == golden["totals"]["points"]


def test_golden_records_no_host_path():
    # The committed golden audits the host it was recorded on, but
    # names no path of it (the interpreter's location included).
    from repro.metrics.report import environment_section

    assert "executable" not in environment_section()
    environment = load_report(str(GOLDEN))["environment"]
    assert "executable" not in environment
    assert not any(isinstance(value, str) and value.startswith("/")
                   for value in environment.values())


def test_a9_holds_every_lane_to_the_fast_lane():
    scenario = get_scenario("A9_lane_matrix")
    groups = {}
    for spec in scenario.specs:
        group, lane = spec.name.rsplit("/", 1)
        assert spec.lane == lane
        groups.setdefault(group, []).append(lane)
    assert all(lanes[0] == "fast" for lanes in groups.values())
    assert {claim.id for claim in scenario.claims} == {
        f"A9.{group}/{lane}"
        for group, lanes in groups.items() for lane in lanes[1:]
    }
    # 139 (configuration, lane) points; 7 of them, in 4 sweeps, run on
    # the vec lane, which the registry builds only with numpy.
    vec = sum(lanes.count("vec") for lanes in groups.values())
    assert vec == (4 if lane_available("vec") else 0)
    assert scenario.total_points() == (139 if lane_available("vec") else 132)


@pytest.mark.parametrize("p", [8, 32, 64])
def test_a9_sched_sparse_schedule_is_pinned(p):
    # The lane matrix's sched-sparse: pid k fails at tick 50 + 400k and
    # restarts 7 ticks later, for k = 0..7, a live pid at every P it
    # runs.
    schedule = SparseSchedule(victims=8)(0)._schedule
    assert schedule == {
        50: ([0], []), 57: ([], [0]),
        450: ([1], []), 457: ([], [1]),
        850: ([2], []), 857: ([], [2]),
        1250: ([3], []), 1257: ([], [3]),
        1650: ([4], []), 1657: ([], [4]),
        2050: ([5], []), 2057: ([], [5]),
        2450: ([6], []), 2457: ([], [6]),
        2850: ([7], []), 2857: ([], [7]),
    }
    assert all(0 <= pid < p for fails, restarts in schedule.values()
               for pid in fails + restarts)


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        get_scenario("E99_no_such_thing")


def test_every_registered_spec_is_engine_runnable():
    """Each scenario's specs must expand and pickle for the engine."""
    import pickle

    for tag in scenario_tags():
        scenario = get_scenario(tag)
        assert scenario.total_points() > 0, tag
        for spec in scenario.specs:
            for point in expand_spec(spec):
                pickle.dumps((point.algorithm, point.adversary))


@pytest.mark.slow
def test_run_benchmarks_emits_valid_report(tmp_path):
    report, results = run_benchmarks(
        tags=["E1_thrashing"], tag="unit", workers=1,
        cache_dir=str(tmp_path / "cache"), progress=None,
    )
    validate_bench_report(report)  # raises on schema drift
    assert report["totals"]["points"] > 0
    assert report["totals"]["failed"] == 0
    [scenario] = report["scenarios"]
    assert scenario["tag"] == "E1_thrashing"
    assert scenario["source"] == "repro/experiments/bench.py"
    assert [claim["id"] for claim in scenario["claims"]] == [
        "E1.solved", "E1.charged_exponent", "E1.completed_exponent",
    ]
    assert all(claim["ok"] for claim in scenario["claims"])
    assert report["totals"]["claims"] == 3
    assert report["totals"]["claims_failed"] == 0
    for sweep in scenario["sweeps"]:
        for record in sweep["points"]:
            assert record["wall_s"] >= 0.0
            assert record["sigma"] == pytest.approx(
                record["S"] / (record["n"] + record["F"])
            )

    path = tmp_path / "BENCH_unit.json"
    dump_report(report, str(path))
    assert load_report(str(path)) == json.loads(path.read_text())

    # Warm re-run through the same cache: 100% hit rate.
    warm, _ = run_benchmarks(
        tags=["E1_thrashing"], tag="unit", workers=1,
        cache_dir=str(tmp_path / "cache"), progress=None,
    )
    assert warm["totals"]["executed"] == 0
    assert warm["totals"]["cache_hits"] == warm["totals"]["points"]
    assert warm["scenarios"][0]["cache"]["hit_rate"] == 1.0


def test_repeated_tags_run_once():
    report, results = run_benchmarks(
        ["R3_pmem_checkpoint", "E14_lemma45_oversubscription",
         "R3_pmem_checkpoint"],
        workers=1,
    )
    assert [s["tag"] for s in report["scenarios"]] == [
        "R3_pmem_checkpoint", "E14_lemma45_oversubscription",
    ]
    assert list(results) == ["R3_pmem_checkpoint",
                             "E14_lemma45_oversubscription"]
    assert report["totals"]["executed"] == 4 + 8


@pytest.mark.slow
def test_bench_run_reports_run_level_recovery(tmp_path):
    # A bench run is one engine run: the pool restarts its crashes
    # cause are counted once, and the run's wall clock covers every
    # scenario's (which all start with the run, so they overlap).
    report, results = run_benchmarks(
        tags=["R3_pmem_checkpoint", "E14_lemma45_oversubscription"],
        tag="chaos", workers=2, cache_dir=str(tmp_path / "cache"),
        retries=3, chaos=ChaosPolicy(seed=11, crash=1.0,
                                     max_faults_per_point=1),
    )
    validate_bench_report(report)
    totals = report["totals"]
    assert totals["failed"] == 0
    assert totals["executed"] == totals["points"]
    assert totals["pool_restarts"] >= 1
    sweep_stats = [
        sweep["stats"] for scenario in report["scenarios"]
        for sweep in scenario["sweeps"]
    ]
    assert sum(stats["pool_restarts"] for stats in sweep_stats) == \
        totals["pool_restarts"]
    walls = [scenario["wall_s"] for scenario in report["scenarios"]]
    assert totals["wall_s"] >= max(walls) > 0.0
    for tag, own in results.items():
        assert [result.spec for result in own] == \
            list(get_scenario(tag).specs)


def test_validate_rejects_malformed_reports():
    with pytest.raises(ValueError):
        validate_bench_report({"schema": "something/2"})
    with pytest.raises(ValueError):
        validate_bench_report({
            "schema": "repro-bench/1", "tag": "x", "created_unix": 0.0,
            "workers": 1, "scenarios": [{"tag": "s"}], "totals": {},
        })


def _minimal_report(**extra):
    report = {
        "schema": "repro-bench/1", "tag": "x", "created_unix": 0.0,
        "workers": 1, "scenarios": [], "totals": {},
    }
    report.update(extra)
    return report


def test_environment_audit_records_host_frequency_state():
    from repro.metrics.report import bench_report, environment_section

    audit = environment_section()
    # Governor/turbo/load are best-effort: a real value where the host
    # exposes them, null otherwise — but the keys are always present,
    # and whatever came back must pass schema validation.
    for key in ("cpu_governor", "cpu_turbo", "load_avg_1min"):
        assert key in audit
    assert audit["cpu_governor"] is None \
        or isinstance(audit["cpu_governor"], str)
    assert audit["cpu_turbo"] in (None, True, False)
    assert audit["load_avg_1min"] is None \
        or isinstance(audit["load_avg_1min"], float)
    validate_bench_report(bench_report("audit", [], workers=1))


def test_validate_environment_audit_types():
    good = _minimal_report(environment={
        "python": "3.12.0", "platform": "linux", "cpu_count": 4,
        "numpy": None, "cpu_governor": "performance", "cpu_turbo": False,
        "load_avg_1min": 0.42,
    })
    validate_bench_report(good)
    # Null where the host does not expose the state is fine...
    nulls = _minimal_report(environment={
        "python": "3.12.0", "platform": "linux", "cpu_count": 4,
        "numpy": None, "cpu_governor": None, "cpu_turbo": None,
        "load_avg_1min": None,
    })
    validate_bench_report(nulls)
    # ...and a pre-fabric report without the new keys still loads.
    legacy = _minimal_report(environment={
        "python": "3.12.0", "platform": "linux", "cpu_count": 4,
        "numpy": None,
    })
    validate_bench_report(legacy)
    for key, bad in (("cpu_governor", 3), ("cpu_turbo", "yes"),
                     ("load_avg_1min", True)):
        broken = _minimal_report(environment={
            "python": "3.12.0", "platform": "linux", "cpu_count": 4,
            "numpy": None, key: bad,
        })
        with pytest.raises(ValueError, match=key):
            validate_bench_report(broken)


def test_validate_backend_key():
    from repro.metrics.report import bench_report

    tagged = bench_report("x", [], workers=1, backend="remote:h:1")
    assert tagged["backend"] == "remote:h:1"
    validate_bench_report(tagged)
    untagged = bench_report("x", [], workers=1)
    assert "backend" not in untagged
    validate_bench_report(untagged)
    with pytest.raises(ValueError, match="backend"):
        validate_bench_report(_minimal_report(backend=""))
    with pytest.raises(ValueError, match="backend"):
        validate_bench_report(_minimal_report(backend=7))
