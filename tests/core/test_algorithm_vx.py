"""Tests for the interleaved V+X combination (Theorem 4.9)."""

import pytest

from repro.core import AlgorithmVX, AlgorithmX, solve_write_all
from repro.faults import (
    NoFailures,
    RandomAdversary,
    ScheduledAdversary,
    StalkingAdversaryX,
    ThrashingAdversary,
)


class TestLayout:
    def test_sublayouts_share_x(self):
        layout = AlgorithmVX().build_layout(16, 8)
        assert layout.x_layout.x_base == 0
        assert layout.v_layout.x_base == 0
        assert layout.x_base == 0

    def test_regions_disjoint(self):
        layout = AlgorithmVX().build_layout(16, 8)
        x = layout.x_layout
        v = layout.v_layout
        # X's non-x region: [x.d_base, x.size); V's: [v.d_base, v.size).
        assert x.d_base >= 16
        assert v.d_base >= x.size
        assert layout.size == v.size

    def test_exposes_w_base_for_the_stalker(self):
        layout = AlgorithmVX().build_layout(16, 8)
        assert layout.w_base == layout.x_layout.w_base


class TestCorrectness:
    @pytest.mark.parametrize("n,p", [(8, 8), (16, 4), (64, 64), (64, 7),
                                     (128, 128)])
    def test_shapes(self, n, p):
        result = solve_write_all(AlgorithmVX(), n, p, adversary=NoFailures())
        assert result.solved

    def test_interleaving_costs_at_most_2x_of_x(self):
        x = solve_write_all(AlgorithmX(), 64, 64)
        vx = solve_write_all(AlgorithmVX(), 64, 64)
        assert vx.solved
        # X finishes first in the interleaving; V's cycles double the bill.
        assert vx.completed_work <= 2 * x.completed_work + 2 * 64

    @pytest.mark.parametrize("seed", range(5))
    def test_random_failures_and_restarts(self, seed):
        result = solve_write_all(
            AlgorithmVX(), 64, 64,
            adversary=RandomAdversary(0.12, 0.3, seed=seed),
            max_ticks=500_000,
        )
        assert result.solved

    def test_mass_extinction(self):
        schedule = {5: (list(range(16)), []), 8: ([], [3])}
        result = solve_write_all(
            AlgorithmVX(), 16, 16, adversary=ScheduledAdversary(schedule),
            max_ticks=50_000,
        )
        assert result.solved


class TestTheorem49:
    def test_terminates_under_the_x_stalker(self):
        """V alone can be starved; the X half guarantees termination."""
        result = solve_write_all(
            AlgorithmVX(), 32, 32, adversary=StalkingAdversaryX(),
            max_ticks=2_000_000,
        )
        assert result.solved

    def test_thrashing_bounded(self):
        n = 32
        result = solve_write_all(
            AlgorithmVX(), n, n, adversary=ThrashingAdversary(),
            max_ticks=200_000,
        )
        assert result.solved
        assert result.completed_work < n * n

    def test_small_failure_patterns_get_v_like_work(self):
        """With few failures the work tracks the Theorem 4.3 term
        N + P log^2 N + M log N (far below X's stalked worst case)."""
        from repro.metrics.bounds import work_upper_thm43

        n = 64
        result = solve_write_all(
            AlgorithmVX(), n, n,
            adversary=RandomAdversary(0.02, 0.2, seed=7),
            max_ticks=500_000,
        )
        assert result.solved
        bound = work_upper_thm43(n, n, result.pattern_size)
        assert result.completed_work <= 12 * bound
