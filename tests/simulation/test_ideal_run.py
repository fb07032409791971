"""Tests for the ideal synchronous PRAM (``classify.ideal_run``).

The one evaluator that the fuzz driver, its fixtures and the property
suites check the robust executors against.
"""

import random

import pytest

import repro.simulation.programs as programs
from repro.core import AlgorithmVX, AlgorithmX
from repro.faults import NoFailures, RandomAdversary
from repro.fuzz.generator import (
    GeneratedProgram,
    ProcessorAction,
    generate_initial_memory,
    generate_program,
)
from repro.simulation import FunctionStep, RobustSimulator, SimProgram
from repro.simulation.classify import ideal_run
from repro.simulation.persistent import PersistentSimulator
from repro.simulation.programs import (
    bfs_input,
    bfs_program,
    list_ranking_program,
    matvec_program,
    max_find_program,
    odd_even_sort_program,
    polynomial_input,
    polynomial_program,
    prefix_sum_program,
)
from repro.simulation.programs.list_ranking import list_ranking_input


def table(width, memory_size, *steps):
    """A SimProgram from rows of ProcessorActions, one row per step."""
    return GeneratedProgram(
        width=width, memory_size=memory_size, steps=steps,
    ).to_sim_program()


class TestHandComputed:
    def test_synchronous_swap(self):
        # Both processors read the other's cell and copy it — the
        # classic synchronous-semantics trap.
        program = table(2, 2, (
            ProcessorAction(reads=(1,), writes=(0,), op="copy"),
            ProcessorAction(reads=(0,), writes=(1,), op="copy"),
        ))
        assert ideal_run(program, [3, 9]) == [9, 3]

    def test_two_steps_chain(self):
        program = table(
            1, 2,
            (ProcessorAction(reads=(0,), writes=(1,), op="sum", constant=1),),
            (ProcessorAction(reads=(1,), writes=(0,), op="sum", constant=1),),
        )
        assert ideal_run(program, [5, 0]) == [7, 6]

    def test_short_initial_padded_with_zeros(self):
        program = table(1, 3, (
            ProcessorAction(reads=(2,), writes=(0,), op="copy"),
        ))
        assert ideal_run(program, [9]) == [0, 0, 0]
        assert ideal_run(program) == [0, 0, 0]

    def test_oversized_initial_rejected(self):
        with pytest.raises(ValueError, match="exceeds the program's memory"):
            ideal_run(table(1, 1), [1, 2])

    def test_conflicting_writes_rejected(self):
        # Even agreeing writers: the exclusive-write machine has no rule.
        program = table(2, 2, (
            ProcessorAction(writes=(0,)), ProcessorAction(writes=(0,)),
        ))
        with pytest.raises(ValueError, match="cell 0 written twice"):
            ideal_run(program, [0, 0])

    def test_chained_reads_see_the_previous_memory(self):
        # Processor 0 follows the pointer in cell 0 while processor 1
        # overwrites the cell it points to: the read sees the old value.
        step = FunctionStep(
            reads=lambda i: (0, lambda values: values[0]) if i == 0 else (),
            writes=lambda i: (2,) if i == 0 else (1,),
            compute=lambda i, values: (values[-1],) if i == 0 else (99,),
        )
        program = SimProgram(width=2, memory_size=3, steps=[step])
        assert ideal_run(program, [1, 42, 0]) == [1, 99, 42]

    def test_none_read_spec_yields_zero(self):
        step = FunctionStep(
            reads=lambda i: (0, lambda values: None),
            writes=lambda i: (1,),
            compute=lambda i, values: (values[0] + 10 * values[1],),
        )
        program = SimProgram(width=1, memory_size=2, steps=[step])
        assert ideal_run(program, [5, 7]) == [5, 5]


class TestAgainstRobustExecution:
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_programs_failure_free(self, seed):
        program = generate_program(seed)
        initial = generate_initial_memory(seed, program.memory_size)
        simulator = RobustSimulator(
            p=3, algorithm=AlgorithmVX(), adversary=NoFailures()
        )
        sim = program.to_sim_program()
        result = simulator.execute(sim, list(initial))
        assert result.solved
        assert result.memory == ideal_run(sim, initial)


def _curated():
    """Every program of ``repro.simulation.programs`` with an input."""
    rng = random.Random(11)
    order = list(range(8))
    rng.shuffle(order)
    successor = [0] * 8
    for node, following in zip(order, order[1:] + order[-1:]):
        successor[node] = following
    ranking_input, _ = list_ranking_input(successor)
    values = [rng.randint(0, 99) for _ in range(8)]
    ring = [[(v - 1) % 8, (v + 1) % 8] for v in range(8)]
    return {
        "prefix_sum_program": (prefix_sum_program(8), values),
        "max_find_program": (max_find_program(8), values),
        "odd_even_sort_program": (odd_even_sort_program(8), values),
        "list_ranking_program": (list_ranking_program(8), ranking_input),
        "matvec_program": (matvec_program(4),
                           [rng.randint(-3, 3) for _ in range(20)]
                           + [0] * 4),
        "bfs_program": (bfs_program(ring), bfs_input(8, [3])),
        "polynomial_program": (polynomial_program(8),
                               polynomial_input(values, 2)),
    }


CURATED = _curated()


def test_every_curated_program_is_checked():
    assert set(CURATED) == {
        name for name in programs.__all__ if name.endswith("_program")
    }


@pytest.mark.parametrize("name", sorted(CURATED))
def test_curated_program_matches_robust_execution_under_churn(name):
    program, initial = CURATED[name]
    simulator = RobustSimulator(
        p=4, algorithm=AlgorithmVX(),
        adversary=RandomAdversary(0.05, 0.4, seed=7),
    )
    result = simulator.execute(program, list(initial))
    assert result.solved
    assert result.total_pattern_size > 0
    assert result.memory == ideal_run(program, initial)


def chained_copy_program():
    """One processor copies ``cell[cell[0]]`` into cell 1."""
    return SimProgram(1, 2, [FunctionStep(
        reads=lambda i: (0, lambda values: values[0]),
        writes=lambda i: (1,),
        compute=lambda i, values: (values[1],),
    )], name="chained-copy")


EVALUATORS = {
    "ideal": lambda program, initial: ideal_run(program, initial),
    "robust": lambda program, initial: RobustSimulator(
        p=1, algorithm=AlgorithmX()
    ).execute(program, initial).memory,
    "persistent": lambda program, initial: PersistentSimulator(
        p=1
    ).execute(program, initial).memory,
}


@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
@pytest.mark.parametrize("address", [-1, 5])
def test_chained_read_out_of_range_is_one_error(evaluator, address):
    # A chained read spec is checked as it resolves, by the one rule
    # every evaluator shares: below the memory it read a host cell in
    # the executors and the end of memory in the ideal run, above it
    # raised IndexError in one and MemoryError_ in the others.
    with pytest.raises(ValueError) as raised:
        EVALUATORS[evaluator](chained_copy_program(), [address, 7])
    assert str(raised.value) == (
        f"chained-copy step 0: simulated processor 0 reads address "
        f"{address}, out of simulated memory [0, 2)"
    )


@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
def test_chained_read_in_range_agrees(evaluator):
    assert EVALUATORS[evaluator](chained_copy_program(), [1, 7]) == [1, 7]
    assert EVALUATORS[evaluator](chained_copy_program(), [0, 7]) == [0, 0]


def writeless_reader_program():
    """Processor 0 copies cell 0 into cell 2; processor 1 writes nothing
    but follows the pointer in cell 1."""
    return SimProgram(2, 3, [FunctionStep(
        reads=lambda i: (0,) if i == 0 else (1, lambda values: values[0]),
        writes=lambda i: (2,) if i == 0 else (),
        compute=lambda i, values: (values[0],),
    )], name="writeless-reader")


@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
def test_writeless_processor_reads_nothing(evaluator):
    # Both executors run no cycle for a processor without write
    # addresses, so its dangling pointer (cell 1 holds 9, past the
    # memory) is never followed; the ideal run skips it the same way.
    program = writeless_reader_program()
    assert EVALUATORS[evaluator](program, [4, 9, 0]) == [4, 9, 4]
