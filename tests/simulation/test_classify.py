"""Tests for PRAM-variant classification of simulated programs."""

import pytest

from repro.simulation import FunctionStep, SimProgram
from repro.simulation.classify import (
    classify_program,
    simulation_is_deterministic,
)
from repro.simulation.programs import (
    matvec_program,
    max_find_program,
    odd_even_sort_program,
    prefix_sum_program,
)


def program_of(steps, width=4, memory_size=8):
    return SimProgram(width=width, memory_size=memory_size, steps=steps,
                      name="t")


class TestClassification:
    def test_erew(self):
        step = FunctionStep(
            reads=lambda i: (i,),
            writes=lambda i: (i + 4,),
            compute=lambda i, values: (values[0],),
        )
        assert classify_program(program_of([step]), [1, 2, 3, 4]) == "EREW"

    def test_crew(self):
        step = FunctionStep(
            reads=lambda i: (0,),  # everyone reads cell 0
            writes=lambda i: (i + 4,),
            compute=lambda i, values: (values[0],),
        )
        assert classify_program(program_of([step]), [9]) == "CREW"

    def test_writeless_processor_reads_count_nothing(self):
        # Processor 1 writes nothing, so neither executor runs its reads:
        # its read of cell 0 does not make processor 0's read concurrent.
        step = FunctionStep(
            reads=lambda i: (0,) if i < 2 else (),
            writes=lambda i: (4,) if i == 0 else (),
            compute=lambda i, values: (values[0],),
        )
        assert classify_program(program_of([step]), [9]) == "EREW"

    def test_common(self):
        step = FunctionStep(
            reads=lambda i: (),
            writes=lambda i: (7,),  # everyone writes 1 into cell 7
            compute=lambda i, values: (1,),
        )
        assert classify_program(program_of([step]), []) == "COMMON"

    def test_arbitrary(self):
        step = FunctionStep(
            reads=lambda i: (),
            writes=lambda i: (7,),
            compute=lambda i, values: (i,),  # disagreeing values
        )
        assert classify_program(program_of([step]), []) == "ARBITRARY"

    def test_rank_is_monotone_across_steps(self):
        erew = FunctionStep(
            reads=lambda i: (i,), writes=lambda i: (i,),
            compute=lambda i, values: (values[0],),
        )
        common = FunctionStep(
            reads=lambda i: (), writes=lambda i: (7,),
            compute=lambda i, values: (1,),
        )
        assert classify_program(program_of([erew, common]), [0] * 4) == "COMMON"

    def test_oversized_initial_memory_rejected(self):
        # The simulators' input rule: a longer memory is an error, not
        # a CREW verdict on cells the program does not have.
        with pytest.raises(
            ValueError,
            match=r"initial memory \(12 cells\) exceeds the program's "
                  r"memory size 4",
        ):
            classify_program(prefix_sum_program(4), list(range(1, 13)))

    def test_determinism_predicate(self):
        assert simulation_is_deterministic("EREW")
        assert simulation_is_deterministic("COMMON")
        assert not simulation_is_deterministic("ARBITRARY")


class TestLibraryPrograms:
    """Every shipped program is COMMON-or-weaker, hence exactly
    reproducible by the robust executor (Theorem 4.1's COMMON row)."""

    def test_prefix_sum_is_crew(self):
        cls = classify_program(prefix_sum_program(8), list(range(8)))
        assert cls in ("EREW", "CREW")

    def test_max_find(self):
        cls = classify_program(max_find_program(8), list(range(8)))
        assert cls in ("EREW", "CREW")

    def test_sort(self):
        cls = classify_program(odd_even_sort_program(8), [3, 1, 4, 1, 5, 9, 2, 6])
        assert cls in ("EREW", "CREW")

    def test_matvec(self):
        program = matvec_program(4)
        initial = [1] * (4 * 4) + [1] * 4 + [0] * 4
        cls = classify_program(program, initial)
        assert cls in ("EREW", "CREW")
        assert simulation_is_deterministic(cls)
