"""Tests for the command-line interface (invoked in-process)."""

import argparse
import dataclasses

import pytest

from repro.cli import adversary_spec, main
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


ENGINE_COMMANDS = ("sweep", "bench", "chaos")

#: (command, flag, bad value, what the usage error says): budgets must
#: be positive, and a count below its floor would select nothing.
BAD_VALUES = [
    *[(command, "--timeout", value, "positive")
      for command in ENGINE_COMMANDS for value in ("0", "-1")],
    *[(command, "--workers", value, "at least 1")
      for command in ENGINE_COMMANDS for value in ("0", "-3")],
    *[(command, "--retries", "-2", "at least 0")
      for command in ENGINE_COMMANDS],
    *[(command, "--seeds", "0", "at least 1")
      for command in ("sweep", "chaos")],
    *[(command, "--iterations", "0", "at least 1")
      for command in ("chaos", "fuzz")],
]

#: The same for the run flags: sizes are positive powers of two (the
#: instance check's message), processor counts, widths, tick budgets
#: and the fuzz bounds at least 1, probabilities in [0, 1], and lanes
#: registry names.
BAD_RUN_VALUES = [
    *[("fuzz", flag, "0", "at least 1")
      for flag in ("--passes", "--max-width", "--max-steps")],
    ("fuzz", "--max-fixtures", "-1", "at least 0"),
    ("fuzz", "--lanes", "bogus", "unknown lane(s): bogus"),
    ("sweep", "--sizes", "x", "invalid int value"),
    ("sweep", "--sizes", "0", "at least 1"),
    ("sweep", "--sizes", "48", "power of two, got 48 (pad to 64)"),
    ("sweep", "--sizes", "16,48", "power of two, got 48 (pad to 64)"),
    *[(command, "--n", "0", "at least 1")
      for command in ("solve", "trace", "showdown")],
    ("solve", "--n", "48", "power of two, got 48 (pad to 64)"),
    *[(command, "--p", "0", "at least 1")
      for command in ("solve", "sweep", "simulate", "trace", "showdown")],
    *[(command, "--width", "0", "at least 1")
      for command in ("simulate", "trace")],
    *[(command, "--max-ticks", value, "at least 1")
      for command in ("solve", "showdown") for value in ("0", "-5")],
    *[("solve", flag, value, "must lie in [0, 1]")
      for flag in ("--fail", "--restart-prob") for value in ("2", "-1")],
    *[(command, f"--chaos-{kind}", "1.5", "must lie in [0, 1]")
      for command in ("bench", "chaos")
      for kind in ("crash", "stall", "error", "corrupt")],
]


class TestEngineFlagValidation:
    """Bad engine and run flags are usage errors (exit 2), never
    tracebacks."""

    @pytest.mark.parametrize(
        "command, flag, value, message", BAD_VALUES + BAD_RUN_VALUES,
        ids=[f"{command}{flag}={value}"
             for command, flag, value, _ in BAD_VALUES + BAD_RUN_VALUES],
    )
    def test_bad_value_is_a_usage_error(
        self, command, flag, value, message, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("argv", [["--backend", "pool"], ["--resume"]],
                             ids=["backend", "resume"])
    @pytest.mark.parametrize("command", ENGINE_COMMANDS)
    def test_removed_flag_is_a_usage_error(self, command, argv, capsys):
        # The worker count alone chooses inline or pool, and resuming
        # from the cache is the default.
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(argv)}" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("kind", ["seed", "crash", "stall", "error",
                                      "corrupt"])
    def test_sweep_takes_no_chaos_flag(self, kind, capsys):
        # Engine fault injection is armed on bench (and repro chaos).
        with pytest.raises(SystemExit) as exc:
            main(["sweep", f"--chaos-{kind}", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --chaos-{kind} 0" in captured.err


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

    @pytest.mark.parametrize("persistent", [[], ["--persistent"]],
                             ids=["robust", "persistent"])
    def test_max_ticks_bounds_the_run(self, persistent, capsys):
        # One tick per phase (robust) or per run (persistent) cannot
        # finish the program: INCOMPLETE, exit 1.
        code = main(["simulate", "--max-ticks", "1", "--p", "2",
                     "--width", "8", *persistent])
        assert code == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_persistent_executor(self, capsys):
        code = main(["simulate", "--program", "prefix-sum", "--width", "8",
                     "--p", "4", "--persistent",
                     "--adversary", "random", "--fail", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "persistent" in out
        assert "generations=6" in out  # 2 per step, 3 steps at width 8

    @pytest.mark.parametrize("algorithm", ["X", "trivial"])
    @pytest.mark.parametrize("first", ["--persistent", "--algorithm"])
    def test_persistent_takes_no_algorithm(self, algorithm, first, capsys):
        # The persistent executor is generational X: an explicit
        # --algorithm, even X, is a usage error naming both flags.
        flags = {"--persistent": ["--persistent"],
                 "--algorithm": ["--algorithm", algorithm]}
        second = "--algorithm" if first == "--persistent" else "--persistent"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--p", "2", "--width", "8", "--seed", "3",
                  *flags[first], *flags[second]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert (f"argument {second}: not allowed with argument {first}"
                in captured.err)
        assert "Traceback" not in captured.out + captured.err

    def test_persistent_output_without_algorithm(self, capsys):
        code = main(["simulate", "--persistent", "--p", "2", "--width", "8",
                     "--seed", "3"])
        assert code == 0
        assert capsys.readouterr().out == (
            "prefix-sum[8] (persistent): solved; total S=655, |F|=94, "
            "generations=6\n"
            "memory head: [3, 12, 20, 22, 27, 36, 43, 52]\n"
        )

    def test_robust_default_algorithm_is_x(self, capsys):
        outputs = []
        for extra in ([], ["--algorithm", "X"]):
            assert main(["simulate", "--p", "2", "--width", "8",
                         "--seed", "3", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestTrace:
    def test_timeline_output(self, capsys):
        code = main(["trace", "--n", "16", "--p", "4",
                     "--adversary", "random", "--fail", "0.2", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pid" in out
        assert "tick" in out

    def test_trace_and_solve_agree_under_stalls(self, capsys):
        # trace runs the adversary in a union with its Tracer; the union
        # must pass the speed classes' stalls through.
        args = ["--algorithm", "X", "--n", "64", "--p", "64",
                "--adversary", "speed-classes"]
        assert main(["solve", *args]) == 0
        solved = capsys.readouterr().out.splitlines()[0]
        assert main(["trace", *args]) == 0
        traced = capsys.readouterr().out.splitlines()[0]
        assert "ticks=8," in solved
        assert traced == solved


class TestShowdown:
    def test_matrix(self, capsys):
        code = main(["showdown", "--n", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "thrashing" in out
        assert "VX" in out


def flags(name):
    return argparse.Namespace(adversary=name, fail=0.1, restart_prob=0.3)


class TestAdversaryRegistry:
    def test_all_names_build(self):
        from repro.cli import ADVERSARIES

        for name in ADVERSARIES:
            assert adversary_spec(flags(name)).build(0) is not None

    def test_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown adversary 'nope'"):
            adversary_spec(flags("nope"))
