"""Integration: measured work tracks the paper's bound shapes.

These are scaled-down versions of the benchmark experiments, kept fast
enough for the unit-test suite; the full sweeps are the scenarios of
``repro.experiments.bench``, whose claims ``repro bench`` checks.
"""

import math

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmX,
    SnapshotAlgorithm,
    solve_write_all,
)
from repro.faults import (
    FailureBudgetAdversary,
    HalvingAdversary,
    NoRestartAdversary,
    RandomAdversary,
    StalkingAdversaryX,
    ThrashingAdversary,
)
from repro.metrics.bounds import (
    work_lower_thm31,
    work_upper_lemma42,
    work_upper_thm43,
)
from repro.metrics.fitting import fitted_exponent, is_flat, ratio_series


class TestTheorem31Shape:
    def test_halving_forces_n_log_n_growth(self):
        sizes = [16, 32, 64, 128]
        works = []
        for n in sizes:
            result = solve_write_all(
                SnapshotAlgorithm(), n, n, adversary=HalvingAdversary(),
                max_ticks=200_000,
            )
            assert result.solved
            works.append(result.completed_work)
        ratios = ratio_series(works, [work_lower_thm31(n) for n in sizes])
        assert is_flat(ratios, tolerance=3.0)
        assert all(ratio >= 0.4 for ratio in ratios)


class TestExample22Shape:
    def test_thrashing_charged_work_is_quadratic(self):
        sizes = [16, 32, 64]
        charged = []
        for n in sizes:
            result = solve_write_all(
                AlgorithmX(), n, n, adversary=ThrashingAdversary(),
                max_ticks=200_000,
            )
            charged.append(result.charged_work)
        exponent = fitted_exponent(sizes, charged)
        assert exponent > 1.7  # ~ P * N

    def test_thrashing_completed_work_is_near_linear(self):
        sizes = [16, 32, 64]
        completed = []
        for n in sizes:
            result = solve_write_all(
                AlgorithmX(), n, n, adversary=ThrashingAdversary(),
                max_ticks=200_000,
            )
            completed.append(result.completed_work)
        exponent = fitted_exponent(sizes, completed)
        assert exponent < 1.5


class TestLemma42Shape:
    def test_v_crash_only_ratio_flat(self):
        sizes = [32, 64, 128]
        ratios = []
        for n in sizes:
            adversary = NoRestartAdversary(RandomAdversary(0.02, seed=1))
            result = solve_write_all(
                AlgorithmV(), n, n, adversary=adversary, max_ticks=500_000
            )
            assert result.solved
            ratios.append(result.completed_work / work_upper_lemma42(n, n))
        assert is_flat(ratios, tolerance=4.0)


class TestTheorem43Shape:
    def test_v_work_scales_with_failure_budget(self):
        """More failures, more work — bounded by the M log N term."""
        n = 64
        works = []
        for budget in [0, 100, 400]:
            adversary = FailureBudgetAdversary(
                RandomAdversary(0.3, 0.5, seed=2), budget
            )
            result = solve_write_all(
                AlgorithmV(), n, n, adversary=adversary, max_ticks=500_000
            )
            assert result.solved
            bound = work_upper_thm43(n, n, result.pattern_size)
            assert result.completed_work <= 12 * bound
            works.append(result.completed_work)
        assert works[0] <= works[-1]


class TestTheorem48Shape:
    def test_stalked_x_exponent_in_band(self):
        sizes = [16, 32, 64]
        works = []
        for n in sizes:
            result = solve_write_all(
                AlgorithmX(), n, n, adversary=StalkingAdversaryX(),
                max_ticks=2_000_000,
            )
            assert result.solved
            works.append(result.completed_work)
        exponent = fitted_exponent(sizes, works)
        # Lower bound log2(3) ≈ 1.585; upper bound sub-quadratic.
        assert math.log2(3) - 0.15 <= exponent < 2.0


class TestTheorem49Shape:
    def test_vx_beats_stalked_x_under_stalker(self):
        """The interleaved algorithm terminates under the X-stalker while
        paying at most the X price; with benign failures it pays the V
        price instead."""
        n = 32
        stalked = solve_write_all(
            AlgorithmVX(), n, n, adversary=StalkingAdversaryX(),
            max_ticks=2_000_000,
        )
        assert stalked.solved
        benign = solve_write_all(
            AlgorithmVX(), n, n,
            adversary=RandomAdversary(0.03, 0.3, seed=5),
            max_ticks=500_000,
        )
        assert benign.solved
        assert benign.completed_work < stalked.completed_work
