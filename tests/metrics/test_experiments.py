"""Tests for the experiment-sweep framework."""

import csv
import math

from repro.core import AlgorithmX
from repro.experiments import SweepSpec, run_sweep
from repro.faults import registry


def basic_spec(**overrides):
    defaults = dict(
        name="test",
        algorithm=AlgorithmX,
        sizes=[16, 32],
        processors=lambda n: n,
        adversary=registry.spec("random", fail=0.1, restart_prob=0.3),
        seeds=range(3),
        max_ticks=500_000,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestRunSweep:
    def test_point_grid_complete(self):
        result = run_sweep(basic_spec())
        assert len(result.points) == 2 * 3
        assert result.cells() == [(16, 16), (32, 32)]
        assert result.all_solved()

    def test_worst_dominates_mean(self):
        result = run_sweep(basic_spec())
        for n, p in result.cells():
            assert result.worst_work(n, p) >= result.mean_work(n, p)

    def test_fixed_processor_count(self):
        result = run_sweep(basic_spec(processors=4))
        assert result.cells() == [(16, 4), (32, 4)]

    def test_failure_free_spec(self):
        result = run_sweep(basic_spec(adversary=None, seeds=[0]))
        assert all(point.pattern_size == 0 for point in result.points)

    def test_fitted_exponent_on_stalker(self):
        spec = basic_spec(
            sizes=[16, 32, 64],
            adversary=registry.spec("stalker"),
            seeds=[0],
            max_ticks=5_000_000,
        )
        exponent = run_sweep(spec).fitted_exponent()
        assert math.log2(3) - 0.2 <= exponent <= 2.0

    def test_table_renders(self):
        table = run_sweep(basic_spec()).table()
        assert "sweep: test" in table
        assert "S worst" in table

    def test_csv_export(self, tmp_path):
        result = run_sweep(basic_spec(seeds=[0, 1]))
        path = tmp_path / "sweep.csv"
        result.export_csv(str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:4] == ["n", "p", "seed", "solved"]
        assert len(rows) == 1 + len(result.points)
