"""Unit tests for the :mod:`repro.perf` subsystem."""

from __future__ import annotations

import copy
import json

import pytest

from repro.metrics.report import validate_bench_report
from repro.perf.micro import (
    PERF_ADVERSARIES,
    PERF_ALGORITHMS,
    describe_comparison,
    perf_report,
    run_comparison,
)
from repro.perf.phases import PhaseCounters
from repro.pram.vectorized import HAVE_NUMPY
from repro.perf.regression import (
    DEFAULT_MIN_WALL_S,
    DEFAULT_WALL_TOLERANCE,
    compare_reports,
)
from repro.perf.timing import (
    TimingResult,
    time_callable,
    time_callables_interleaved,
)


class TestTimeCallable:
    def test_runs_warmup_plus_repeats(self):
        calls = {"count": 0}

        def func():
            calls["count"] += 1

        timing = time_callable(func, repeats=3, warmup=2)
        assert calls["count"] == 5
        assert len(timing.samples_s) == 3
        assert timing.warmup == 2

    def test_zero_warmup_is_legal(self):
        timing = time_callable(lambda: None, repeats=1, warmup=0)
        assert len(timing.samples_s) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, warmup=-1)

    def test_result_statistics(self):
        timing = TimingResult(samples_s=[0.2, 0.1, 0.4], warmup=1)
        assert timing.best_s == pytest.approx(0.1)
        assert timing.mean_s == pytest.approx(0.7 / 3)
        assert timing.spread == pytest.approx(3.0)


class TestTimeCallablesInterleaved:
    def test_round_robin_order(self):
        order = []
        timings = time_callables_interleaved(
            [lambda: order.append("a"), lambda: order.append("b")],
            repeats=3, warmup=1,
        )
        # Warmup runs each leg once, then the measured repeats strictly
        # alternate — that alternation is the whole point: slow host
        # drift hits both legs of a speedup ratio equally.
        assert order == ["a", "b", "a", "b", "a", "b", "a", "b"]
        assert [len(t.samples_s) for t in timings] == [3, 3]
        assert all(t.warmup == 1 for t in timings)

    def test_zero_warmup_is_legal(self):
        [timing] = time_callables_interleaved([lambda: None],
                                              repeats=1, warmup=0)
        assert len(timing.samples_s) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            time_callables_interleaved([lambda: None], repeats=0)
        with pytest.raises(ValueError):
            time_callables_interleaved([lambda: None], warmup=-1)


class TestPhaseCounters:
    def test_total_and_merge(self):
        first = PhaseCounters(collect_s=1.0, resolve_s=0.5, ticks=10)
        second = PhaseCounters(adversary_s=0.25, settle_s=0.25, ticks=5)
        first.merge(second)
        assert first.total_s == pytest.approx(2.0)
        assert first.ticks == 15

    def test_as_dict_round_trips_through_json(self):
        counters = PhaseCounters(collect_s=0.123456789, ticks=3)
        payload = json.loads(json.dumps(counters.as_dict()))
        assert payload["collect_s"] == pytest.approx(0.123457)
        assert payload["ticks"] == 3

    def test_describe_with_and_without_time(self):
        assert "no phase time" in PhaseCounters(ticks=2).describe()
        counters = PhaseCounters(collect_s=3.0, settle_s=1.0, ticks=7)
        line = counters.describe()
        assert "collect 75.0%" in line
        assert "settle 25.0%" in line
        assert "ticks=7" in line


def _tiny_report(tag="base", wall_s=0.05, ticks=100, cached=False,
                 extra_point=None):
    points = [{
        "n": 64, "p": 8, "seed": 0, "solved": True,
        "S": 500, "S_prime": 510, "F": 0, "sigma": 6.9,
        "ticks": ticks, "wall_s": wall_s, "cached": cached,
    }]
    if extra_point is not None:
        points.append(extra_point)
    return {
        "schema": "repro-bench/1",
        "tag": tag,
        "created_unix": 0.0,
        "workers": 1,
        "scenarios": [{
            "tag": "PERF_micro",
            "title": "unit fixture",
            "source": "tests/perf/test_perf.py",
            "wall_s": wall_s,
            "cache": {"hits": 0, "executed": len(points), "failed": 0,
                      "hit_rate": 0.0},
            "sweeps": [{"name": "X/fast", "points": points,
                        "failures": []}],
        }],
        "totals": {"points": len(points), "executed": len(points),
                   "cache_hits": 0, "failed": 0, "wall_s": wall_s},
    }


class TestCompareReports:
    def test_identical_reports_are_ok(self):
        report = compare_reports(_tiny_report(), _tiny_report(tag="cand"))
        assert report.ok
        assert report.compared == 1
        assert "OK: no regressions" in report.render()

    def test_model_mismatch_is_error(self):
        report = compare_reports(
            _tiny_report(), _tiny_report(tag="cand", ticks=101)
        )
        assert not report.ok
        [finding] = report.errors
        assert finding.kind == "model-mismatch"
        assert "ticks" in finding.detail

    def test_wall_regression_is_warning_inside_band_is_ok(self):
        baseline = _tiny_report(wall_s=0.05)
        within = compare_reports(baseline, _tiny_report(wall_s=0.09))
        assert within.ok  # 1.8x < default 2x band
        above = compare_reports(baseline, _tiny_report(wall_s=0.15))
        assert not above.ok
        [finding] = above.warnings
        assert finding.kind == "wall-regression"

    def test_fast_baseline_points_are_never_banded(self):
        baseline = _tiny_report(wall_s=DEFAULT_MIN_WALL_S / 2)
        report = compare_reports(baseline, _tiny_report(wall_s=10.0))
        assert report.ok

    def test_cached_points_are_never_banded(self):
        baseline = _tiny_report(wall_s=0.05)
        report = compare_reports(
            baseline, _tiny_report(wall_s=10.0, cached=True)
        )
        assert report.ok

    def test_missing_point_is_error_new_point_is_info(self):
        extra = {
            "n": 128, "p": 16, "seed": 0, "solved": True,
            "S": 900, "S_prime": 910, "F": 0, "sigma": 6.3,
            "ticks": 150, "wall_s": 0.1, "cached": False,
        }
        bigger = _tiny_report(extra_point=extra)
        shrunk = compare_reports(bigger, _tiny_report(tag="cand"))
        assert not shrunk.ok
        [finding] = shrunk.errors
        assert finding.kind == "missing-point"
        grown = compare_reports(_tiny_report(), bigger)
        assert grown.ok
        kinds = [f.kind for f in grown.findings]
        assert kinds == ["new-point"]

    def test_missing_scenario_is_one_named_error(self):
        base = _tiny_report()
        cand = _tiny_report(tag="cand")
        cand["scenarios"][0]["tag"] = "PERF_other"
        report = compare_reports(base, cand)
        assert not report.ok
        missing = [f for f in report.errors if f.kind == "scenario-missing"]
        [finding] = missing
        assert "'PERF_micro'" in finding.detail
        # the scenario's points are not additionally reported one by one
        assert not any(
            f.kind == "missing-point" and f.key[0] == "PERF_micro"
            for f in report.findings
        )

    def test_missing_lane_is_one_named_error(self):
        # Baseline ran with --lane auto, candidate with the default
        # lane: one lane-mismatch error naming the lane, not a wall of
        # per-point missing errors.
        base = _tiny_report()
        auto_sweep = copy.deepcopy(base["scenarios"][0]["sweeps"][0])
        auto_sweep["name"] = "X/auto"
        base["scenarios"][0]["sweeps"].append(auto_sweep)
        report = compare_reports(base, _tiny_report(tag="cand"))
        assert not report.ok
        [finding] = report.errors
        assert finding.kind == "lane-mismatch"
        assert "'auto'" in finding.detail
        assert "--lane" in finding.detail
        assert not any(f.kind == "missing-point" for f in report.findings)
        # the shared fast lane still compared normally
        assert report.compared == 1

    def test_candidate_extra_lane_is_info(self):
        cand = _tiny_report(tag="cand")
        auto_sweep = copy.deepcopy(cand["scenarios"][0]["sweeps"][0])
        auto_sweep["name"] = "X/auto"
        cand["scenarios"][0]["sweeps"].append(auto_sweep)
        report = compare_reports(_tiny_report(), cand)
        assert report.ok
        kinds = [f.kind for f in report.findings]
        assert kinds == ["new-lane"]

    def test_laneless_sweep_names_fall_back_to_per_point_errors(self):
        # Experiment-driver sweeps have no /<mode> suffix, so there is
        # no lane notion to collapse into: a whole missing sweep is
        # still reported point by point.
        base = _tiny_report()
        base["scenarios"][0]["sweeps"][0]["name"] = "Xsweep"
        cand = _tiny_report(tag="cand")
        cand["scenarios"][0]["sweeps"][0]["name"] = "Ysweep"
        report = compare_reports(base, cand)
        kinds = sorted(f.kind for f in report.findings)
        assert kinds == ["missing-point", "new-point"]

    def test_malformed_record_names_scenario_not_keyerror(self):
        broken = _tiny_report()
        del broken["scenarios"][0]["sweeps"][0]["points"][0]["n"]
        with pytest.raises(ValueError, match="'PERF_micro'.*'n'"):
            compare_reports(broken, _tiny_report(tag="cand"))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(_tiny_report(), _tiny_report(),
                            wall_tolerance=-0.5)

    def test_default_tolerance_is_two_x(self):
        assert DEFAULT_WALL_TOLERANCE == 1.0

    def test_backend_mismatch_is_one_named_error(self):
        # Wall-clock from two different executors times the dispatch
        # fabric, not the code: one named error, not spurious
        # wall-regression warnings.  Report files may carry any backend
        # string, including ones this build no longer runs.
        base = _tiny_report()
        base["backend"] = "serial"
        cand = _tiny_report(tag="cand", wall_s=10.0)
        cand["backend"] = "remote:127.0.0.1:7341"
        report = compare_reports(base, cand)
        assert not report.ok
        [finding] = [
            f for f in report.errors if f.kind == "backend-mismatch"
        ]
        assert "'serial'" in finding.detail
        assert "'remote:127.0.0.1:7341'" in finding.detail
        # Model comparison still proceeds alongside the named error.
        assert report.compared == 1

    def test_matching_or_absent_backend_keys_pass(self):
        # Same backend on both sides: no finding.  Legacy reports
        # (no backend key on either or one side) skip the check.
        both = _tiny_report(), _tiny_report(tag="cand")
        for report_dict in both:
            report_dict["backend"] = "pool"
        assert compare_reports(*both).ok
        legacy_base = _tiny_report()
        tagged_cand = _tiny_report(tag="cand")
        tagged_cand["backend"] = "remote:127.0.0.1:7341"
        assert compare_reports(legacy_base, tagged_cand).ok

    def test_model_tag_missing_is_one_named_error_per_name(self):
        # A baseline annotated with an adversary the registry no longer
        # knows measured a fault model this build cannot reproduce.
        base = _tiny_report()
        base["scenarios"][0]["adversaries"] = ["random", "gone-model"]
        report = compare_reports(base, _tiny_report(tag="cand"))
        assert not report.model_ok
        [finding] = [
            f for f in report.errors if f.kind == "model-tag-missing"
        ]
        assert "'gone-model'" in finding.detail
        # Registered names pass silently; point comparison proceeds.
        assert report.compared == 1

    def test_registered_adversaries_annotations_pass(self):
        base = _tiny_report()
        base["scenarios"][0]["adversaries"] = ["random", "static-mem"]
        assert compare_reports(base, _tiny_report(tag="cand")).ok


class TestCheckRegressionCli:
    @staticmethod
    def _write(tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    @staticmethod
    def _cli(argv):
        import importlib.util
        import pathlib
        script = (pathlib.Path(__file__).resolve().parents[2]
                  / "benchmarks" / "check_regression.py")
        spec = importlib.util.spec_from_file_location(
            "check_regression", script
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(argv)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _tiny_report())
        cand = self._write(tmp_path, "cand.json", _tiny_report(tag="cand"))
        assert self._cli([base, cand]) == 0
        assert "OK: no regressions" in capsys.readouterr().out

    def test_exit_one_on_model_mismatch(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _tiny_report())
        cand = self._write(
            tmp_path, "cand.json", _tiny_report(tag="cand", ticks=999)
        )
        assert self._cli([base, cand]) == 1
        assert "model-mismatch" in capsys.readouterr().out

    def test_informational_always_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _tiny_report())
        cand = self._write(
            tmp_path, "cand.json", _tiny_report(tag="cand", ticks=999)
        )
        assert self._cli([base, cand, "--informational"]) == 0
        assert "model-mismatch" in capsys.readouterr().out

    def test_gate_model_fails_on_model_mismatch(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _tiny_report())
        cand = self._write(
            tmp_path, "cand.json", _tiny_report(tag="cand", ticks=999)
        )
        assert self._cli([base, cand, "--gate-model"]) == 1
        assert "model-mismatch" in capsys.readouterr().out

    def test_gate_model_tolerates_wall_regression(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _tiny_report(wall_s=0.05))
        cand = self._write(
            tmp_path, "cand.json", _tiny_report(tag="cand", wall_s=0.5)
        )
        # Same model fields, 10x slower: the default mode fails, the
        # model gate only reports the warning.
        assert self._cli([base, cand]) == 1
        assert self._cli([base, cand, "--gate-model"]) == 0
        assert "wall-regression" in capsys.readouterr().out

    def test_gate_model_fails_on_coverage_gap(self, tmp_path, capsys):
        extra = {
            "n": 128, "p": 16, "seed": 0, "solved": True,
            "S": 900, "S_prime": 910, "F": 0, "sigma": 6.3,
            "ticks": 150, "wall_s": 0.1, "cached": False,
        }
        base = self._write(
            tmp_path, "base.json", _tiny_report(extra_point=extra)
        )
        cand = self._write(tmp_path, "cand.json", _tiny_report(tag="cand"))
        assert self._cli([base, cand, "--gate-model"]) == 1
        assert "missing-point" in capsys.readouterr().out


class TestRunComparison:
    def test_small_comparison_agrees_and_reports(self):
        comparison = run_comparison("W", 64, 8, repeats=1, warmup=0)
        assert comparison.head.mode == "fast"
        assert comparison.head.result.solved
        assert list(comparison.legs) == ["fast", "noff", "nokernel",
                                         "baseline"]
        ratios = comparison.ratios()
        assert ratios["speedup"] > 0
        assert ratios["ff_speedup"] > 0
        # Fused windows bypass the per-phase timers; the dedicated
        # fused_ticks counter keeps the tick accounting complete.
        phases = comparison.head.phases
        assert phases.ticks + phases.fused_ticks == \
            comparison.head.result.ledger.ticks
        text = describe_comparison(comparison)
        assert "W(N=64, P=8)" in text
        assert "speedup" in text
        assert "no-ff" in text

    def test_no_baseline_leg(self):
        comparison = run_comparison("trivial", 64, 8, repeats=1, warmup=0,
                                    include_baseline=False)
        assert "baseline" not in comparison.legs
        assert "speedup" not in comparison.ratios()

    def test_adversarial_legs_replay_identical_pattern(self):
        comparison = run_comparison("X", 64, 8, repeats=1, warmup=0,
                                    adversary="sched-sparse")
        # _check_legs_agree already asserted model equality across the
        # fast/noff/baseline legs; the pattern itself must be non-empty
        # or the scenario is not exercising fault handling at all.
        assert comparison.head.result.pattern_size > 0
        assert comparison.head.result.solved
        text = describe_comparison(comparison)
        assert "@sched-sparse" in text

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown perf algorithm"):
            run_comparison("nope", 64, 8)

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ValueError, match="unknown perf adversary"):
            run_comparison("X", 64, 8, adversary="nope")

    def test_all_perf_algorithms_registered(self):
        assert set(PERF_ALGORITHMS) == {
            "trivial", "W", "V", "X", "VX", "snapshot"
        }

    def test_all_perf_adversaries_registered(self):
        assert set(PERF_ADVERSARIES) == {
            "none", "sched-sparse", "budget-sparse"
        }


class TestPerfReport:
    def test_report_validates_against_bench_schema(self):
        comparison = run_comparison("X", 64, 8, repeats=1, warmup=0)
        report = perf_report([comparison], tag="unit", wall_s=0.1)
        validate_bench_report(report)
        [scenario] = report["scenarios"]
        assert scenario["tag"] == "PERF_micro"
        names = [sweep["name"] for sweep in scenario["sweeps"]]
        assert names == ["X/fast", "X/noff", "X/nokernel", "X/baseline"]

    def test_adversarial_sweeps_are_namespaced(self):
        comparison = run_comparison("X", 64, 8, repeats=1, warmup=0,
                                    adversary="budget-sparse")
        report = perf_report([comparison], tag="unit", wall_s=0.1)
        validate_bench_report(report)
        [scenario] = report["scenarios"]
        names = [sweep["name"] for sweep in scenario["sweeps"]]
        assert names == [
            "X@budget-sparse/fast",
            "X@budget-sparse/noff",
            "X@budget-sparse/nokernel",
            "X@budget-sparse/baseline",
        ]

    def test_report_feeds_the_regression_comparator(self):
        comparison = run_comparison("X", 64, 8, repeats=1, warmup=0)
        report = perf_report([comparison], tag="unit", wall_s=0.1)
        diff = compare_reports(report, copy.deepcopy(report))
        assert diff.ok
        assert diff.compared == 4

    def test_vec_speedup_field_validated_but_optional(self):
        report = _tiny_report()
        point = report["scenarios"][0]["sweeps"][0]["points"][0]
        validate_bench_report(report)  # pre-PR reports omit it: fine
        point["vec_speedup"] = 6.21
        validate_bench_report(report)
        point["vec_speedup"] = -1.0
        with pytest.raises(ValueError, match="vec_speedup"):
            validate_bench_report(report)
        point["vec_speedup"] = "fast"
        with pytest.raises(ValueError, match="vec_speedup"):
            validate_bench_report(report)

    def test_auto_speedup_field_validated_but_optional(self):
        report = _tiny_report()
        point = report["scenarios"][0]["sweeps"][0]["points"][0]
        validate_bench_report(report)  # pre-PR-8 reports omit it: fine
        point["auto_speedup"] = 0.98
        validate_bench_report(report)
        point["auto_speedup"] = 0.0
        with pytest.raises(ValueError, match="auto_speedup"):
            validate_bench_report(report)
        point["auto_speedup"] = True
        with pytest.raises(ValueError, match="auto_speedup"):
            validate_bench_report(report)

    def test_environment_section_validated_but_optional(self):
        from repro.metrics.report import environment_section

        report = _tiny_report()
        validate_bench_report(report)  # pre-PR-8 reports omit it: fine
        report["environment"] = environment_section()
        validate_bench_report(report)
        assert report["environment"]["python"]
        assert report["environment"]["cpu_count"] >= 1
        report["environment"] = "linux"
        with pytest.raises(ValueError, match="environment"):
            validate_bench_report(report)
        report["environment"] = {"python": "3.12"}
        with pytest.raises(ValueError, match="environment"):
            validate_bench_report(report)

    def test_perf_reports_carry_the_environment_audit(self):
        comparison = run_comparison("X", 64, 8, repeats=1, warmup=0,
                                    include_baseline=False)
        report = perf_report([comparison], tag="unit", wall_s=0.1)
        environment = report["environment"]
        assert environment["python"] == __import__("platform").python_version()
        assert "numpy" in environment  # version string or None


@pytest.mark.skipif(not HAVE_NUMPY, reason="the vec leg needs numpy")
class TestVectorizedLeg:
    def test_vec_comparison_times_novec_leg(self):
        comparison = run_comparison("trivial", 256, 8, repeats=1, warmup=0,
                                    include_baseline=False, lane="vec")
        assert "novec" in comparison.legs
        assert comparison.ratios()["vec_speedup"] > 0
        text = describe_comparison(comparison)
        assert "no-vec" in text and "vec-speedup" in text

    def test_default_skips_novec_leg(self):
        comparison = run_comparison("trivial", 256, 8, repeats=1, warmup=0,
                                    include_baseline=False)
        assert "novec" not in comparison.legs
        assert "vec_speedup" not in comparison.ratios()

    def test_unvectorizable_algorithm_skips_novec_leg(self):
        # V ships no vector program, so the vec run degrades to the
        # scalar lanes and a novec leg would time the same thing twice.
        comparison = run_comparison("V", 64, 8, repeats=1, warmup=0,
                                    include_baseline=False, lane="vec")
        assert "novec" not in comparison.legs

    def test_report_records_vec_speedup_on_fast_point(self):
        comparison = run_comparison("trivial", 256, 8, repeats=1, warmup=0,
                                    include_baseline=False, lane="vec")
        report = perf_report([comparison], tag="unit", wall_s=0.1)
        validate_bench_report(report)
        [scenario] = report["scenarios"]
        by_name = {s["name"]: s["points"][0] for s in scenario["sweeps"]}
        assert "trivial/novec" in by_name
        fast_point = by_name["trivial/fast"]
        assert fast_point["vec_speedup"] == pytest.approx(
            comparison.ratios()["vec_speedup"], rel=1e-3
        )
        assert "vec_speedup" not in by_name["trivial/novec"]


@pytest.mark.skipif(not HAVE_NUMPY, reason="the auto novec leg needs numpy")
class TestAutoLeg:
    def test_auto_comparison_reports_auto_speedup(self):
        comparison = run_comparison("trivial", 256, 8, repeats=1, warmup=0,
                                    include_baseline=False, lane="auto")
        assert comparison.head.mode == "auto"
        assert "novec" in comparison.legs
        assert comparison.ratios()["auto_speedup"] > 0
        # vec_speedup is reserved for the *forced* vec lane: under auto
        # the fast leg may have run scalar windows, so the ratio gets
        # its own name.
        assert "vec_speedup" not in comparison.ratios()
        text = describe_comparison(comparison)
        assert "auto-speedup" in text and "vec-speedup" not in text

    def test_forced_vec_has_no_auto_speedup(self):
        comparison = run_comparison("trivial", 256, 8, repeats=1, warmup=0,
                                    include_baseline=False, lane="vec")
        assert "auto_speedup" not in comparison.ratios()
        assert "vec_speedup" in comparison.ratios()

    def test_report_names_the_auto_lane(self):
        comparison = run_comparison("trivial", 256, 8, repeats=1, warmup=0,
                                    include_baseline=False, lane="auto")
        report = perf_report([comparison], tag="unit", wall_s=0.1)
        validate_bench_report(report)
        [scenario] = report["scenarios"]
        by_name = {s["name"]: s["points"][0] for s in scenario["sweeps"]}
        assert "trivial/auto" in by_name
        assert "trivial/novec" in by_name
        auto_point = by_name["trivial/auto"]
        assert auto_point["auto_speedup"] == pytest.approx(
            comparison.ratios()["auto_speedup"], rel=1e-3
        )
        assert "vec_speedup" not in auto_point

    def test_auto_model_equals_scalar_model(self):
        auto = run_comparison("W", 256, 8, repeats=1, warmup=0,
                              include_baseline=False, adversary="sched-sparse",
                              lane="auto")
        scalar = run_comparison("W", 256, 8, repeats=1, warmup=0,
                                include_baseline=False,
                                adversary="sched-sparse")
        for field in ("completed_work", "charged_work", "pattern_size"):
            assert getattr(auto.head.result, field) == \
                getattr(scalar.head.result, field)
        assert auto.head.result.ledger.ticks == \
            scalar.head.result.ledger.ticks
