"""The model gate: ``compare_reports``, ``check_regression.py`` and the
``repro-bench/1`` report schema."""

from __future__ import annotations

import copy
import json

import pytest

from repro.metrics.report import validate_bench_report
from repro.perf.regression import compare_reports


def _tiny_report(tag="base", wall_s=0.05, ticks=100, extra_point=None):
    points = [{
        "n": 64, "p": 8, "seed": 0, "solved": True,
        "S": 500, "S_prime": 510, "F": 0, "sigma": 6.9,
        "ticks": ticks, "wall_s": wall_s, "cached": False,
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


def _sweep(report, name):
    """Append a copy of ``report``'s first sweep, renamed ``name``."""
    sweep = copy.deepcopy(report["scenarios"][0]["sweeps"][0])
    sweep["name"] = name
    report["scenarios"][0]["sweeps"].append(sweep)
    return report


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

    def test_wall_clock_and_workers_are_not_compared(self):
        # Model fields are independent of the host and the worker
        # count; wall-clock is the e2e benchmark's business, not the
        # gate's.
        base = _tiny_report(wall_s=0.05)  # workers=1
        cand = _tiny_report(tag="cand", wall_s=10.0)
        cand["workers"] = 2
        report = compare_reports(base, cand)
        assert report.ok
        assert report.findings == []

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

    def test_dropped_sweep_is_one_named_error(self):
        base = _sweep(_tiny_report(), "X/auto")
        [auto] = base["scenarios"][0]["sweeps"][1:]
        auto["points"].append(dict(auto["points"][0], n=128))
        report = compare_reports(base, _tiny_report(tag="cand"))
        assert not report.ok
        [finding] = report.errors
        assert finding.kind == "sweep-missing"
        assert "'X/auto'" in finding.detail
        assert finding.render().startswith(
            "[error] sweep-missing at PERF_micro:X/auto: "
        )
        # the sweep's two points are not reported one by one
        assert [f.kind for f in report.findings] == ["sweep-missing"]
        # the shared sweep still compared normally
        assert report.compared == 1

    @pytest.mark.parametrize("name", [
        "X/thrashing", "ppm/ck-8", "X/sched-sparse/ff",
    ])
    def test_registry_sweep_names_produce_no_lane_finding(self, name):
        # Registry sweeps are <algorithm>/<regime>: the part after the
        # last "/" is no lane.  A candidate with more sweeps (or more
        # scenarios) than the baseline is new coverage, point by point.
        base = _tiny_report()
        base["scenarios"][0]["sweeps"][0]["name"] = name
        cand = _sweep(_tiny_report(tag="cand"), "ppm/ck-32")
        cand["scenarios"][0]["sweeps"][0]["name"] = name
        other = copy.deepcopy(cand["scenarios"][0])
        other["tag"] = "R3_pmem_checkpoint"
        cand["scenarios"].append(other)
        report = compare_reports(base, cand)
        assert report.ok
        assert report.compared == 1
        assert {f.kind for f in report.findings} == {"new-point"}
        assert "lane" not in report.render()

    def test_point_findings_name_their_point_others_do_not(self):
        base = _tiny_report()
        cand = _tiny_report(tag="cand", ticks=101)
        [point] = compare_reports(base, cand).errors
        assert point.render().startswith(
            "[error] model-mismatch at PERF_micro:X/fast "
            "(N=64, P=8, seed=0): ticks"
        )
        cand["scenarios"][0]["tag"] = "PERF_other"
        [scenario] = compare_reports(base, cand).errors
        assert scenario.render().startswith(
            "[error] scenario-missing at PERF_micro:*: "
        )
        assert "N=0" not in compare_reports(base, cand).render()

    def test_malformed_record_names_scenario_not_keyerror(self):
        broken = _tiny_report()
        del broken["scenarios"][0]["sweeps"][0]["points"][0]["n"]
        with pytest.raises(ValueError, match="'PERF_micro'.*'n'"):
            compare_reports(broken, _tiny_report(tag="cand"))

    def test_model_tag_missing_is_one_named_error_per_name(self):
        # A baseline annotated with an adversary the registry no longer
        # knows measured a fault model this build cannot reproduce.
        base = _tiny_report()
        base["scenarios"][0]["adversaries"] = ["random", "gone-model"]
        report = compare_reports(base, _tiny_report(tag="cand"))
        assert not report.ok
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

    def test_exit_one_on_coverage_gap(self, tmp_path, capsys):
        base = self._write(
            tmp_path, "base.json", _sweep(_tiny_report(), "X/auto")
        )
        cand = self._write(tmp_path, "cand.json", _tiny_report(tag="cand"))
        assert self._cli([base, cand]) == 1
        assert "sweep-missing" in capsys.readouterr().out

    def test_exit_zero_despite_slower_wall_clock(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _tiny_report(wall_s=0.05))
        cand = self._write(
            tmp_path, "cand.json", _tiny_report(tag="cand", wall_s=0.5)
        )
        assert self._cli([base, cand]) == 0
        assert "OK: no regressions" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--gate-model"], ["--informational"], ["--wall-tolerance", "1"],
        ["--min-wall", "0.01"],
    ])
    def test_takes_no_flag(self, tmp_path, capsys, flag):
        base = self._write(tmp_path, "base.json", _tiny_report())
        with pytest.raises(SystemExit) as exc:
            self._cli([base, base] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReportSchema:
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
