"""Tests for the two-phase robust executor."""

import pytest

from repro.core import AlgorithmV, AlgorithmVX, AlgorithmX
from repro.faults import NoFailures, RandomAdversary
from repro.simulation import FunctionStep, RobustSimulator, SimProgram


def increment_program(width):
    """Each simulated processor increments its own cell."""
    step = FunctionStep(
        reads=lambda i: (i,),
        writes=lambda i: (i,),
        compute=lambda i, values: (values[0] + 1,),
        label="inc",
    )
    return SimProgram(width=width, memory_size=width, steps=[step, step],
                      name="increment")


def swap_neighbors_program(width):
    """Synchronous swap: cell i takes the value of cell i^1."""
    step = FunctionStep(
        reads=lambda i: (i ^ 1,),
        writes=lambda i: (i,),
        compute=lambda i, values: (values[0],),
        label="swap",
    )
    return SimProgram(width=width, memory_size=width, steps=[step],
                      name="swap")


class TestBasicExecution:
    def test_two_increments(self):
        simulator = RobustSimulator(p=4, algorithm=AlgorithmX(),
                                    adversary=NoFailures())
        result = simulator.execute(increment_program(4), [10, 20, 30, 40])
        assert result.solved
        assert result.memory == [12, 22, 32, 42]
        assert result.steps_executed == 2

    def test_synchronous_semantics(self):
        """The swap needs all reads to precede all writes — exactly what
        the compute/commit split guarantees."""
        simulator = RobustSimulator(p=4, algorithm=AlgorithmX())
        result = simulator.execute(swap_neighbors_program(4), [1, 2, 3, 4])
        assert result.memory == [2, 1, 4, 3]

    def test_non_power_width_padded(self):
        simulator = RobustSimulator(p=3, algorithm=AlgorithmX())
        result = simulator.execute(increment_program(3), [5, 6, 7])
        assert result.solved
        assert result.memory == [7, 8, 9]

    def test_initial_memory_shorter_than_size(self):
        program = increment_program(4)
        simulator = RobustSimulator(p=2, algorithm=AlgorithmX())
        result = simulator.execute(program, [1])
        assert result.memory == [3, 2, 2, 2]

    def test_initial_memory_too_long_rejected(self):
        simulator = RobustSimulator(p=2)
        with pytest.raises(ValueError, match="exceed"):
            simulator.execute(increment_program(2), [0, 0, 0])

    def test_no_op_steps_skipped(self):
        from repro.simulation.step import SimStep

        program = SimProgram(width=2, memory_size=2, steps=[SimStep()],
                             name="noop")
        simulator = RobustSimulator(p=2)
        result = simulator.execute(program, [4, 5])
        assert result.solved
        assert result.memory == [4, 5]
        assert result.phases == []


class TestAccounting:
    def test_phase_records(self):
        simulator = RobustSimulator(p=4, algorithm=AlgorithmX())
        result = simulator.execute(increment_program(4), [0, 0, 0, 0])
        assert len(result.phases) == 4  # 2 steps x (compute + commit)
        assert {record.phase for record in result.phases} == {
            "compute", "commit"
        }
        assert result.total_work == sum(
            record.completed_work for record in result.phases
        )

    def test_step_overhead_ratio(self):
        simulator = RobustSimulator(p=4, algorithm=AlgorithmX())
        result = simulator.execute(increment_program(4), [0] * 4)
        assert result.step_overhead_ratio(0) > 0
        assert result.max_step_overhead_ratio >= result.step_overhead_ratio(0)

    def test_step_overhead_ratio_rejects_unrecorded_step(self):
        """A write-free step is skipped as a no-op, so its sigma is
        undefined — that must surface as a clear ValueError, never a
        ZeroDivisionError."""
        from repro.simulation.step import SimStep

        program = SimProgram(
            width=2, memory_size=2,
            steps=[SimStep(), increment_program(2).steps[0]],
            name="leading-noop",
        )
        simulator = RobustSimulator(p=2, algorithm=AlgorithmX())
        result = simulator.execute(program, [0, 0])
        assert result.solved
        assert result.step_overhead_ratio(1) > 0
        with pytest.raises(ValueError, match="step 0 .*no recorded phases"):
            result.step_overhead_ratio(0)
        with pytest.raises(ValueError, match="no recorded phases"):
            result.step_overhead_ratio(99)

    def test_max_step_overhead_ratio_of_write_free_program(self):
        # No step writes, so no phase runs and there is no sigma to
        # maximize: the same descriptive error as step_overhead_ratio.
        from repro.simulation.step import SimStep

        program = SimProgram(
            width=2, memory_size=2, steps=[SimStep(), SimStep()],
            name="all-noop",
        )
        result = RobustSimulator(p=2, algorithm=AlgorithmX()).execute(
            program, [0, 0]
        )
        assert result.solved and not result.phases
        with pytest.raises(ValueError, match="'all-noop' has no recorded phases"):
            result.max_step_overhead_ratio


class TestUnderFailures:
    @pytest.mark.parametrize("algorithm_factory", [AlgorithmX, AlgorithmVX,
                                                   AlgorithmV])
    def test_increments_survive_churn(self, algorithm_factory):
        simulator = RobustSimulator(
            p=8,
            algorithm=algorithm_factory(),
            adversary=RandomAdversary(0.1, 0.3, seed=2),
        )
        result = simulator.execute(increment_program(8), [0] * 8)
        assert result.solved
        assert result.memory == [2] * 8
        assert result.total_pattern_size > 0

    def test_failures_do_not_double_apply(self):
        """Re-executed compute tasks must not increment twice — the
        staging/commit split makes them idempotent."""
        for seed in range(5):
            simulator = RobustSimulator(
                p=4,
                algorithm=AlgorithmX(),
                adversary=RandomAdversary(0.25, 0.4, seed=seed),
            )
            result = simulator.execute(increment_program(4), [0] * 4)
            assert result.solved
            assert result.memory == [2] * 4

    def test_unsolved_phase_stops_execution(self):
        simulator = RobustSimulator(
            p=1, algorithm=AlgorithmX(), max_ticks_per_phase=2
        )
        result = simulator.execute(increment_program(8), [0] * 8)
        assert not result.solved
        assert result.steps_executed <= 1
