"""Tests for algorithm X (Section 4.2 / appendix pseudocode)."""

import math

import pytest

from repro.core import AlgorithmX, CycleFactoryTasks, solve_write_all
from repro.faults import (
    NoFailures,
    RandomAdversary,
    ScheduledAdversary,
    StalkingAdversaryX,
    ThrashingAdversary,
    registry,
)
from repro.pram.cycles import Cycle
from repro.pram.lanes import LANES


class TestLayout:
    def test_structure(self):
        layout = AlgorithmX().build_layout(8, 4)
        assert layout.x_base == 0
        assert layout.d_base == 8
        assert layout.w_base == 8 + 15
        assert layout.size == layout.w_base + 4
        assert layout.tree.leaves == 8
        assert layout.exit_marker == 16

    def test_rejects_non_power_n(self):
        with pytest.raises(ValueError):
            AlgorithmX().build_layout(6, 4)


class TestCorrectness:
    def test_failure_free_p_equals_n(self):
        result = solve_write_all(AlgorithmX(), 64, 64, adversary=NoFailures())
        assert result.solved
        # Everyone at their own leaf: ~3 cycles each (recover, init, work).
        assert result.parallel_time <= 5

    def test_single_processor_is_sequential_dfs(self):
        result = solve_write_all(AlgorithmX(), 16, 1)
        assert result.solved
        # Lemma 4.4: O(N) time for one processor.
        assert result.parallel_time <= 16 * 8

    @pytest.mark.parametrize("n,p", [(8, 3), (16, 5), (32, 32), (64, 16)])
    def test_various_shapes(self, n, p):
        result = solve_write_all(AlgorithmX(), n, p)
        assert result.solved

    def test_p_larger_than_n(self):
        result = solve_write_all(AlgorithmX(), 8, 32)
        assert result.solved

    def test_n_equals_one(self):
        result = solve_write_all(AlgorithmX(), 1, 1)
        assert result.solved

    def test_progress_tree_fully_marked_when_run_to_halt(self):
        """Run to voluntary halt (no early-stop predicate): every
        processor exits through the root, so the whole tree is marked."""
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        algorithm = AlgorithmX()
        layout = algorithm.build_layout(16, 16)
        memory = SharedMemory(layout.size)
        machine = Machine(16, memory, context={"layout": layout})
        machine.load_program(algorithm.program(layout))
        ledger = machine.run(max_ticks=10_000)
        assert ledger.halted
        tree = layout.tree
        for node in range(1, tree.size + 1):
            assert memory.peek(tree.address(node)) == 1


class TestFaultTolerance:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_failures_and_restarts(self, seed):
        result = solve_write_all(
            AlgorithmX(), 64, 64,
            adversary=RandomAdversary(0.15, 0.3, seed=seed),
            max_ticks=500_000,
        )
        assert result.solved

    @pytest.mark.parametrize("n, fail, seed", [(128, 0.1, 1), (256, 0.05, 2)])
    def test_random_churn_with_p_equal_n(self, n, fail, seed):
        # The churn runs E13's cycle rate was first timed on.
        result = solve_write_all(
            AlgorithmX(), n, n,
            adversary=RandomAdversary(fail, 0.3, seed=seed),
            max_ticks=500_000,
        )
        assert result.solved

    def test_mass_extinction_and_revival(self):
        # Kill everyone at tick 2, revive only pid 5 at tick 4.
        schedule = {2: (list(range(16)), []), 4: ([], [5])}
        result = solve_write_all(
            AlgorithmX(), 16, 16, adversary=ScheduledAdversary(schedule),
            max_ticks=10_000,
        )
        assert result.solved

    def test_position_survives_restart(self):
        """The w array is shared: a restarted processor resumes where it
        stopped instead of teleporting to its initial leaf (Remark 6)."""
        algorithm = AlgorithmX()
        # Single processor: fail it mid-run, restart, and check the total
        # work stays near-linear (teleporting would re-walk the tree).
        schedule = {k: ([0], [0]) for k in range(10, 60, 10)}
        result = solve_write_all(
            algorithm, 32, 1, adversary=ScheduledAdversary(schedule),
            max_ticks=10_000,
        )
        assert result.solved
        # 5 failures cost O(log N) each, not O(N) each.
        free = solve_write_all(algorithm, 32, 1)
        assert result.completed_work <= free.completed_work + 5 * 30


class TestPoisonedCells:
    """The walk counts a cell as unmarked only while it holds a value in
    ``[0, mark)``; plain X's mark is 1, so the poison sentinel
    (negative) reads as visited and the walk routes past dead cells."""

    @pytest.mark.parametrize("lane", ["nokernel", "reference", "fast"])
    @pytest.mark.parametrize("seed, expected", [
        (0, (768, 772, 4, 64)),
        (2, (900, 904, 4, 75)),
    ])
    def test_static_mem_results(self, lane, seed, expected):
        result = solve_write_all(
            AlgorithmX(), 64, 16,
            adversary=registry.build("static-mem", seed=seed),
            **LANES[lane].solver_kwargs(),
        )
        ledger = result.ledger
        assert result.solved
        assert (
            ledger.completed_work, ledger.charged_work,
            ledger.pattern_size, ledger.ticks,
        ) == expected


class TestWorkBounds:
    def test_failure_free_work_is_near_linear(self):
        for n in [16, 64, 256]:
            result = solve_write_all(AlgorithmX(), n, n)
            assert result.completed_work <= 4 * n

    def test_thrashing_keeps_completed_work_small(self):
        n = 64
        result = solve_write_all(
            AlgorithmX(), n, n, adversary=ThrashingAdversary(),
            max_ticks=100_000,
        )
        assert result.solved
        assert result.completed_work < n * n // 4

    def test_theorem_4_8_lower_bound_shape(self):
        n = 32
        result = solve_write_all(
            AlgorithmX(), n, n, adversary=StalkingAdversaryX(),
            max_ticks=1_000_000,
        )
        assert result.completed_work >= n ** math.log2(3) / 2


class TestLemma45:
    def test_pid_modulo_n_equivalence(self):
        """Processors with PIDs equal mod N behave identically, so doubling
        P at most doubles the work (S_{N,2N} <= 2 S_{N,N})."""
        base = solve_write_all(AlgorithmX(), 16, 16)
        doubled = solve_write_all(AlgorithmX(), 16, 32)
        assert doubled.solved
        assert doubled.completed_work <= 2 * base.completed_work + 32


class TestGeneralizedTasks:
    def test_task_cycles_run_before_marking(self):
        n, p = 16, 8
        algorithm = AlgorithmX()
        layout = algorithm.build_layout(n, p)
        # Tasks write element's index into a scratch area appended after
        # the layout (the runner sizes memory by layout.size, so reuse the
        # x array semantics: write 7 into d's leaf mirror is intrusive —
        # instead verify via call counts).
        executed = set()

        def factory(element, pid):
            def writes(values, element=element):
                executed.add(element)
                return ()

            return [Cycle(writes=writes, label="task")]

        tasks = CycleFactoryTasks(1, factory)
        result = solve_write_all(algorithm, n, p, tasks=tasks)
        assert result.solved
        assert executed == set(range(n))

    def test_tasks_reexecuted_after_failure_before_mark(self):
        """x[i] stays 0 until the task finished, so an interrupted task is
        re-run by the next visitor — exactly the idempotence contract."""
        n = 8
        runs = []

        def factory(element, pid):
            def writes(values, element=element):
                runs.append(element)
                return ()

            return [Cycle(writes=writes, label="task")]

        tasks = CycleFactoryTasks(1, factory)
        result = solve_write_all(
            AlgorithmX(), n, n, tasks=tasks,
            adversary=RandomAdversary(0.3, 0.5, seed=2),
            max_ticks=100_000,
        )
        assert result.solved
        assert set(runs) >= set(range(n))
