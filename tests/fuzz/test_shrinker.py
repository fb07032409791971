"""Tests for the delta-debugging shrinker."""

import pytest

from repro.fuzz.generator import (
    GeneratedProgram,
    GeneratorConfig,
    generate_initial_memory,
    generate_program,
)
from repro.fuzz.shrinker import shrink


def writes_cell_zero(program: GeneratedProgram, initial) -> bool:
    """A synthetic 'bug': any step where someone writes cell 0."""
    return any(
        0 in action.writes
        for actions in program.steps
        for action in actions
    )


def find_seed_with_cell_zero_write(config):
    for seed in range(100):
        program = generate_program(seed, config)
        if writes_cell_zero(program, None) and len(program.steps) >= 3:
            return seed, program
    raise AssertionError("no suitable seed in range")  # pragma: no cover


class TestShrink:
    def test_reduces_to_single_relevant_step(self):
        config = GeneratorConfig(max_steps=4)
        seed, program = find_seed_with_cell_zero_write(config)
        initial = generate_initial_memory(seed, program.memory_size)
        shrunk, shrunk_initial = shrink(program, initial, writes_cell_zero)
        # Still failing, and minimal along every axis the passes cover:
        # one step, exactly one processor still writing (cell 0), no
        # reads, zeroed values.
        assert writes_cell_zero(shrunk, shrunk_initial)
        assert len(shrunk.steps) == 1
        writers = [
            action for action in shrunk.steps[0] if action.writes
        ]
        assert len(writers) == 1
        assert writers[0].writes == (0,)
        assert writers[0].reads == ()
        assert all(value == 0 for value in shrunk_initial)
        shrunk.validate()

    def test_original_program_untouched(self):
        config = GeneratorConfig(max_steps=4)
        seed, program = find_seed_with_cell_zero_write(config)
        initial = generate_initial_memory(seed, program.memory_size)
        before = program.to_json()
        shrink(program, list(initial), writes_cell_zero)
        assert program.to_json() == before

    def test_non_failing_input_rejected(self):
        program = generate_program(0)
        with pytest.raises(ValueError, match="failing input"):
            shrink(program, [0] * program.memory_size,
                   lambda p, i: False)

    def test_budget_caps_evaluations(self):
        config = GeneratorConfig(max_steps=4)
        seed, program = find_seed_with_cell_zero_write(config)
        initial = generate_initial_memory(seed, program.memory_size)
        evaluations = []

        def counting(p, i):
            evaluations.append(1)
            return writes_cell_zero(p, i)

        shrink(program, initial, counting, max_evaluations=10)
        # initial check + at most the budget
        assert len(evaluations) <= 11
