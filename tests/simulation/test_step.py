"""Tests for the simulated-program step abstraction."""

import pytest

from repro.simulation.step import FunctionStep, SimProgram, SimStep


class TestFunctionStep:
    def test_delegates(self):
        step = FunctionStep(
            reads=lambda i: (i,),
            writes=lambda i: (i,),
            compute=lambda i, values: (values[0] * 2,),
            label="double",
        )
        assert step.read_addresses(3) == (3,)
        assert step.write_addresses(3) == (3,)
        assert step.compute(3, (21,)) == (42,)
        assert step.label == "double"


class TestSimProgram:
    def make(self, **overrides):
        defaults = dict(
            width=4,
            memory_size=8,
            steps=[FunctionStep(
                reads=lambda i: (i,),
                writes=lambda i: (i,),
                compute=lambda i, values: (values[0],),
            )],
            name="identity",
        )
        defaults.update(overrides)
        return SimProgram(**defaults)

    def test_len(self):
        assert len(self.make()) == 1

    def test_validate_passes(self):
        self.make().validate()

    def test_validate_rejects_too_many_reads(self):
        step = FunctionStep(
            reads=lambda i: (0, 1, 2, 3, 4),
            writes=lambda i: (0,),
            compute=lambda i, values: (0,),
        )
        with pytest.raises(ValueError, match="reads 5"):
            self.make(steps=[step]).validate()

    def test_validate_rejects_out_of_range_read(self):
        step = FunctionStep(
            reads=lambda i: (99,),
            writes=lambda i: (0,),
            compute=lambda i, values: (0,),
        )
        with pytest.raises(ValueError, match="read address 99"):
            self.make(steps=[step]).validate()

    def test_validate_rejects_out_of_range_write(self):
        step = FunctionStep(
            reads=lambda i: (),
            writes=lambda i: (50,),
            compute=lambda i, values: (0,),
        )
        with pytest.raises(ValueError, match="write address"):
            self.make(steps=[step]).validate()

    def test_dependent_reads_not_statically_checked(self):
        step = FunctionStep(
            reads=lambda i: (0, lambda values: values[0]),
            writes=lambda i: (0,),
            compute=lambda i, values: (0,),
        )
        self.make(steps=[step]).validate()  # callables pass through

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SimProgram(width=0, memory_size=4, steps=[])
        with pytest.raises(ValueError):
            SimProgram(width=2, memory_size=0, steps=[])

    def test_default_simstep_is_inert(self):
        step = SimStep()
        assert step.read_addresses(0) == ()
        assert step.write_addresses(0) == ()
        assert step.compute(0, ()) == ()

    def test_initial_memory_pads_with_zeros(self):
        program = self.make()
        assert program.initial_memory([3, 4]) == [3, 4, 0, 0, 0, 0, 0, 0]
        assert program.initial_memory(None) == [0] * 8

    def test_initial_memory_rejects_a_longer_input(self):
        with pytest.raises(
            ValueError,
            match=r"initial memory \(9 cells\) exceeds the program's "
                  r"memory size 8",
        ):
            self.make().initial_memory([1] * 9)

    def test_writing_steps_skip_no_ops_and_count_slots(self):
        # Slots are the widest write set; indexes stay program indexes.
        widening = FunctionStep(
            reads=lambda i: (),
            writes=lambda i: (2 * i, 2 * i + 1) if i == 3 else (i,),
            compute=lambda i, values: (0, 0) if i == 3 else (0,),
        )
        program = self.make(steps=[SimStep(), widening, SimStep()])
        assert [(index, step, slots)
                for index, step, slots in program.writing_steps()] == [
            (1, widening, 2),
        ]
