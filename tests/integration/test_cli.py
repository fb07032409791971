"""Tests for the command-line interface (invoked in-process)."""

import dataclasses

import pytest

from repro.cli import build_adversary, main
from repro.experiments import bench
from repro.metrics.report import load_report


def test_help_lists_the_eight_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert ("{solve,sweep,bench,chaos,fuzz,simulate,trace,showdown}"
            in capsys.readouterr().out)


class TestSolve:
    def test_default_run(self, capsys):
        code = main(["solve", "--n", "32", "--adversary", "random",
                     "--fail", "0.1", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "X(N=32, P=32)" in out
        assert "goal reached" in out

    def test_algorithm_selection(self, capsys):
        code = main(["solve", "--n", "16", "--algorithm", "V",
                     "--adversary", "none"])
        assert code == 0
        assert "V(N=16" in capsys.readouterr().out

    def test_explicit_p(self, capsys):
        main(["solve", "--n", "32", "--p", "4", "--adversary", "none"])
        assert "P=4" in capsys.readouterr().out

    def test_failure_exit_code(self):
        # Starver vs V: cannot finish within a small budget.
        code = main(["solve", "--n", "16", "--algorithm", "V",
                     "--adversary", "starver", "--max-ticks", "2000"])
        assert code == 1


class TestSweep:
    def test_sweep_table_and_exponent(self, capsys):
        code = main(["sweep", "--sizes", "16,32", "--seeds", "2",
                     "--adversary", "random", "--fail", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: X/random" in out
        assert "fitted work exponent" in out

    def test_sweep_csv(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main(["sweep", "--sizes", "16", "--seeds", "1",
                     "--adversary", "none", "--csv", str(path)])
        assert code == 0
        assert path.exists()
        assert "n,p,seed" in path.read_text().splitlines()[0]


class TestEngineFlagValidation:
    """Bad engine flags are usage errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", ["sweep", "bench", "chaos"])
    def test_non_positive_timeout_is_a_usage_error(
        self, command, value, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--timeout", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--timeout" in err
        assert "positive" in err

    @pytest.mark.parametrize("value", ["bogus", "remote:127.0.0.1:1"])
    @pytest.mark.parametrize("command", ["sweep", "bench", "chaos"])
    def test_unknown_backend_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--backend", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        output = captured.out + captured.err
        assert "invalid choice" in output
        assert "'serial', 'pool'" in output
        assert "Traceback" not in output


class TestBench:
    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_selection_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--scenarios", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "selects no scenario" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_failed_claim_exits_1_and_names_it(
        self, tmp_path, monkeypatch, capsys
    ):
        scenario = bench.get_scenario("R3_pmem_checkpoint")
        [amortized] = scenario.claims
        tightened = dataclasses.replace(amortized, bound=0.5)
        monkeypatch.setitem(bench.SCENARIOS, scenario.tag,
                            dataclasses.replace(scenario,
                                                claims=(tightened,)))
        code = main(["bench", "--scenarios", scenario.tag, "--workers", "1",
                     "--no-cache", "--out", str(tmp_path), "--tag", "t"])
        assert code == 1
        assert "[claim] FAILED R3.amortized" in capsys.readouterr().out
        totals = load_report(str(tmp_path / "BENCH_t.json"))["totals"]
        assert (totals["failed"], totals["claims_failed"]) == (0, 1)


class TestSimulate:
    @pytest.mark.parametrize("program", [
        "prefix-sum", "max-find", "odd-even-sort", "list-ranking",
    ])
    def test_programs_run(self, program, capsys):
        code = main(["simulate", "--program", program, "--width", "8",
                     "--p", "4", "--adversary", "random", "--fail", "0.05"])
        assert code == 0
        assert "solved" in capsys.readouterr().out

    def test_matvec(self, capsys):
        code = main(["simulate", "--program", "matvec", "--width", "4",
                     "--p", "2", "--adversary", "none"])
        assert code == 0

    def test_persistent_executor(self, capsys):
        code = main(["simulate", "--program", "prefix-sum", "--width", "8",
                     "--p", "4", "--persistent",
                     "--adversary", "random", "--fail", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "persistent" in out
        assert "generations=6" in out  # 2 per step, 3 steps at width 8


class TestTrace:
    def test_timeline_output(self, capsys):
        code = main(["trace", "--n", "16", "--p", "4",
                     "--adversary", "random", "--fail", "0.2", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pid" in out
        assert "tick" in out


class TestShowdown:
    def test_matrix(self, capsys):
        code = main(["showdown", "--n", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "thrashing" in out
        assert "VX" in out


class TestAdversaryRegistry:
    def test_all_names_build(self):
        from repro.cli import ADVERSARIES

        for name in ADVERSARIES:
            assert build_adversary(name, 0.1, 0.3, 0) is not None

    def test_unknown_name(self):
        with pytest.raises(SystemExit):
            build_adversary("nope", 0.1, 0.3, 0)
