"""Tests for the Theorem 3.2 snapshot algorithm."""

import math

import pytest

from repro.core import SnapshotAlgorithm, solve_write_all
from repro.core.tasks import CycleFactoryTasks
from repro.faults import HalvingAdversary, NoFailures, RandomAdversary
from repro.faults.base import Adversary
from repro.pram.cycles import Cycle
from repro.pram.lanes import LANES
from tests.pram.test_fast_path_differential import assert_identical


class TestBasics:
    def test_failure_free_single_pass(self):
        result = solve_write_all(SnapshotAlgorithm(), 32, 32,
                                 adversary=NoFailures())
        assert result.solved
        # One assignment tick plus one completion-observation tick.
        assert result.parallel_time <= 2

    def test_fewer_processors_than_elements(self):
        result = solve_write_all(SnapshotAlgorithm(), 32, 4)
        assert result.solved
        # Balanced assignment: ceil(N/P) assignment rounds.
        assert result.parallel_time <= 32 // 4 + 2

    def test_requires_snapshot_machine(self):
        assert SnapshotAlgorithm.requires_snapshot

    def test_rejects_non_trivial_tasks(self):
        algorithm = SnapshotAlgorithm()
        layout = algorithm.build_layout(8, 8)
        tasks = CycleFactoryTasks(1, lambda element, pid: [Cycle()])
        with pytest.raises(ValueError, match="trivial"):
            algorithm.program(layout, tasks)


class TestLoadBalancing:
    def test_distinct_assignments_when_p_equals_n(self):
        """floor(pid * U / P) is injective across pids when U = P."""
        n = 16
        result = solve_write_all(SnapshotAlgorithm(), n, n)
        # All elements written in the first assignment tick.
        assert result.parallel_time <= 2
        assert result.completed_work <= 2 * n


class TestUnderAdversaries:
    def test_matches_n_log_n_under_halving(self):
        """Theorem 3.2: Theta(N log N) against the optimal adversary."""
        works = []
        sizes = [16, 32, 64, 128]
        for n in sizes:
            result = solve_write_all(
                SnapshotAlgorithm(), n, n, adversary=HalvingAdversary(),
                max_ticks=100_000,
            )
            assert result.solved
            works.append(result.completed_work)
            assert result.completed_work >= (n / 2) * math.log2(n)
            assert result.completed_work <= 8 * n * math.log2(n)

    def test_random_failures(self):
        result = solve_write_all(
            SnapshotAlgorithm(), 64, 64,
            adversary=RandomAdversary(0.2, 0.4, seed=3),
            max_ticks=100_000,
        )
        assert result.solved


SNAPSHOT_ADVERSARIES = {
    "halving": HalvingAdversary,
    "random": lambda: RandomAdversary(0.2, 0.4, seed=3),
    "none": lambda: None,
}


def snapshot_run(lane, n, p, adversary):
    return solve_write_all(
        SnapshotAlgorithm(), n, p, adversary=adversary,
        max_ticks=100_000, **lane.solver_kwargs(),
    )


class TestLanesAgree:
    """Every lane's snapshot run equals the reference lane's: the fast
    lanes share one memory tuple per tick (and so the program's memo
    hits), the reference copies memory per processor (and misses)."""

    @pytest.mark.parametrize("lane", [
        lane for lane in LANES.values() if lane.name != "reference"
    ], ids=lambda lane: lane.name)
    @pytest.mark.parametrize("adversary", sorted(SNAPSHOT_ADVERSARIES))
    @pytest.mark.parametrize("n,p", [(64, 64), (64, 16), (256, 256),
                                     (256, 64)])
    def test_lane_matches_reference(self, lane, adversary, n, p):
        factory = SNAPSHOT_ADVERSARIES[adversary]
        result = snapshot_run(lane, n, p, factory())
        assert result.solved
        assert_identical(
            result, snapshot_run(LANES["reference"], n, p, factory())
        )

    def test_halving_at_1024(self):
        fast = snapshot_run(LANES["fast"], 1024, 1024, HalvingAdversary())
        reference = snapshot_run(
            LANES["reference"], 1024, 1024, HalvingAdversary()
        )
        assert fast.solved
        assert_identical(fast, reference)


class SnapshotRecorder(Adversary):
    """Rules like ``inner`` and records, per tick, the snapshot read
    values of every pending cycle beside the pre-tick memory."""

    def __init__(self, inner):
        self.inner = inner
        self.ticks = []

    def decide(self, view):
        values = [
            pending.read_values
            for pending in view.pending.values()
            if pending.cycle.is_snapshot
        ]
        self.ticks.append((values, tuple(view.memory.snapshot())))
        return self.inner.decide(view)


@pytest.mark.parametrize("lane", [
    lane for lane in LANES.values() if lane.fast_path
], ids=lambda lane: lane.name)
@pytest.mark.parametrize("inner", [NoFailures, HalvingAdversary])
def test_fast_lane_tick_shares_one_read_tuple(lane, inner):
    recorder = SnapshotRecorder(inner())
    result = snapshot_run(lane, 64, 64, recorder)
    assert result.solved
    assert recorder.ticks
    for values, memory in recorder.ticks:
        assert values
        assert all(read is values[0] for read in values)
        assert values[0] == memory
