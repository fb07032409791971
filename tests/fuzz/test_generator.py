"""Tests for the seeded random-program generator."""

import pytest

from repro.fuzz.generator import (
    EXTRA_MEMORY,
    MIN_STEPS,
    MIN_WIDTH,
    OPS,
    VALUE_MODULUS,
    VALUE_RANGE,
    GeneratedProgram,
    GeneratorConfig,
    ProcessorAction,
    apply_op,
    generate_initial_memory,
    generate_program,
    int_draw,
    permutation_draw,
    unit_draw,
)


class TestDraws:
    def test_unit_draw_is_pure(self):
        assert unit_draw(3, "a", 1) == unit_draw(3, "a", 1)
        assert 0.0 <= unit_draw(3, "a", 1) < 1.0

    def test_distinct_coordinates_distinct_draws(self):
        draws = {unit_draw(0, "x", i) for i in range(64)}
        assert len(draws) == 64

    def test_int_draw_bounds(self):
        values = [int_draw(5, 2, 6, "k", i) for i in range(200)]
        assert set(values) <= set(range(2, 7))
        assert len(set(values)) == 5  # the whole range is reachable

    def test_int_draw_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            int_draw(0, 5, 4)

    def test_permutation_draw_is_a_permutation(self):
        for n in (1, 2, 7, 16):
            assert sorted(permutation_draw(9, n, "p")) == list(range(n))

    def test_permutation_draw_is_pure(self):
        assert permutation_draw(1, 10, "q") == permutation_draw(1, 10, "q")


class TestApplyOp:
    def test_semantics(self):
        assert apply_op("sum", (2, 3), 1, 1) == (6,)
        assert apply_op("max", (2, 9, 4), 0, 1) == (9,)
        assert apply_op("max", (), 7, 1) == (7,)
        assert apply_op("min", (2, 9), 0, 1) == (2,)
        assert apply_op("const", (5,), 11, 1) == (11,)
        assert apply_op("copy", (5, 8), 0, 1) == (5,)
        assert apply_op("copy", (), 3, 1) == (3,)
        assert apply_op("xor", (6, 3), 0, 1) == (5,)

    def test_slots_get_distinct_values(self):
        assert apply_op("const", (), 10, 2) == (10, 11)

    def test_values_stay_in_ring(self):
        outputs = apply_op("sum", (VALUE_MODULUS - 1, 5), 0, 2)
        assert all(0 <= value < VALUE_MODULUS for value in outputs)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            apply_op("mul", (1,), 0, 1)


class TestGeneratedPrograms:
    def test_same_seed_same_program(self):
        assert generate_program(42).to_json() == generate_program(42).to_json()

    def test_different_seeds_differ(self):
        produced = {
            str(generate_program(seed).to_json()) for seed in range(10)
        }
        assert len(produced) > 1

    @pytest.mark.parametrize("seed", range(40))
    def test_bounds_hold(self, seed):
        config = GeneratorConfig()
        program = generate_program(seed, config)
        assert MIN_WIDTH <= program.width <= config.max_width
        assert (program.width <= program.memory_size
                <= program.width + EXTRA_MEMORY)
        assert MIN_STEPS <= len(program.steps) <= config.max_steps
        for actions in program.steps:
            assert len(actions) == program.width
            written = []
            for action in actions:
                assert len(action.reads) <= 4
                assert len(action.writes) <= 2
                assert action.op in OPS
                for address in action.reads + action.writes:
                    assert 0 <= address < program.memory_size
                written.extend(action.writes)
            assert len(written) == len(set(written))  # exclusive writes
        program.validate()

    @pytest.mark.parametrize("seed", range(10))
    def test_json_roundtrip(self, seed):
        program = generate_program(seed)
        assert GeneratedProgram.from_json(program.to_json()) == program

    def test_initial_memory_is_pure_and_bounded(self):
        first = generate_initial_memory(3, 12)
        assert first == generate_initial_memory(3, 12)
        assert len(first) == 12
        assert all(0 <= value < VALUE_RANGE for value in first)

    def test_sim_program_mirrors_actions(self):
        program = generate_program(0)
        sim = program.to_sim_program()
        assert sim.width == program.width
        assert sim.memory_size == program.memory_size
        for index, actions in enumerate(program.steps):
            for processor, action in enumerate(actions):
                step = sim.steps[index]
                assert step.read_addresses(processor) == action.reads
                assert step.write_addresses(processor) == action.writes
                values = tuple(range(len(action.reads)))
                assert step.compute(processor, values) == \
                    action.outputs(values)


class TestValidation:
    def test_read_budget_enforced(self):
        program = GeneratedProgram(
            width=1, memory_size=8,
            steps=((ProcessorAction(reads=(0, 1, 2, 3, 4),
                                    writes=(0,)),),),
        )
        with pytest.raises(ValueError, match="reads 5 cells"):
            program.validate()

    def test_write_budget_enforced(self):
        program = GeneratedProgram(
            width=1, memory_size=8,
            steps=((ProcessorAction(writes=(0, 1, 2)),),),
        )
        with pytest.raises(ValueError, match="writes exceed"):
            program.validate()

    def test_exclusive_writes_enforced(self):
        program = GeneratedProgram(
            width=2, memory_size=4,
            steps=((ProcessorAction(writes=(1,)),
                    ProcessorAction(writes=(1,))),),
        )
        with pytest.raises(ValueError, match="both[\\s\\S]*write cell 1"):
            program.validate()

    def test_address_range_enforced(self):
        program = GeneratedProgram(
            width=1, memory_size=2,
            steps=((ProcessorAction(reads=(5,), writes=(0,)),),),
        )
        with pytest.raises(ValueError, match="out of"):
            program.validate()

    def test_action_count_must_match_width(self):
        program = GeneratedProgram(
            width=2, memory_size=2,
            steps=((ProcessorAction(),),),
        )
        with pytest.raises(ValueError, match="actions for width"):
            program.validate()

    def test_config_bounds_checked(self):
        with pytest.raises(ValueError, match="width bounds"):
            GeneratorConfig(max_width=0)
        with pytest.raises(ValueError, match="step bounds"):
            GeneratorConfig(max_steps=0)
