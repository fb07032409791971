"""Tests for the generational (no-reset) persistent executor."""

import random

import pytest

from repro.core.algorithm_x import AlgorithmX, XLayout
from repro.core.generational import GenerationalX, plan_layout
from repro.core.tasks import TrivialTasks
from repro.faults import (
    NoFailures,
    NoRestartAdversary,
    RandomAdversary,
    ScheduledAdversary,
    UnionAdversary,
    registry,
)
from repro.pram.machine import Machine
from repro.pram.trace import Tracer
from repro.simulation import (
    CheckpointPolicy,
    PersistentSimulator,
    RobustSimulator,
)
from repro.simulation.classify import ideal_run
from repro.simulation.programs import (
    max_find_program,
    odd_even_sort_program,
    prefix_sum_program,
)
from repro.simulation.step import SimProgram, SimStep

PROGRAMS = {
    "prefix-sum": (prefix_sum_program, [3, 1, 4, 1, 5, 9, 2, 6]),
    "max-find": (max_find_program, [3, 1, 4, 1, 5, 9, 2, 6]),
    "odd-even": (odd_even_sort_program, [5, 3, 8, 1, 9, 2, 7, 4]),
}

PREFIX = [3, 4, 8, 9, 14, 23, 25, 31]
MAXES = [3, 1, 4, 1, 5, 9, 2, 6, 9, 9, 9, 6, 5, 9, 2, 6]
SORTED = [1, 2, 3, 4, 5, 7, 8, 9]

#: (program, P, registry adversary at seed 0, checkpoint interval) ->
#: (solved, S, S', |F|, ticks, memory), width 8.
PINNED_RUNS = {
    ("prefix-sum", 2, "random", 0): (True, 673, 730, 113, 461, PREFIX),
    ("prefix-sum", 2, "random", 8): (True, 630, 681, 102, 423, PREFIX),
    ("prefix-sum", 4, "crash", 0): (True, 424, 427, 3, 393, PREFIX),
    ("prefix-sum", 4, "crash", 8): (True, 471, 474, 3, 442, PREFIX),
    ("max-find", 2, "burst", 0): (True, 737, 921, 367, 552, MAXES),
    ("max-find", 2, "burst", 8): (True, 828, 1034, 412, 620, MAXES),
    ("max-find", 4, "random", 0): (True, 1241, 1384, 284, 465, MAXES),
    ("max-find", 4, "random", 8): (True, 1123, 1258, 270, 436, MAXES),
    ("odd-even", 2, "crash", 0): (True, 611, 612, 1, 594, SORTED),
    ("odd-even", 2, "crash", 8): (True, 688, 689, 1, 671, SORTED),
    ("odd-even", 4, "burst", 0): (True, 1026, 1282, 510, 384, SORTED),
    ("odd-even", 4, "burst", 8): (True, 1152, 1438, 572, 431, SORTED),
}


class TestGenerationalXUnit:
    def test_layout_flags(self):
        algorithm = GenerationalX([TrivialTasks(), TrivialTasks()])
        layout = algorithm.build_layout(8, 4)
        assert layout == plan_layout(8, 4, 2)
        # X's own layout, then the G + 1 flags.
        x_layout = AlgorithmX().build_layout(8, 4)
        assert isinstance(layout, XLayout)
        assert (layout.d_base, layout.w_base, layout.flags_base) == (
            x_layout.d_base, x_layout.w_base, x_layout.size,
        )
        assert layout.size == x_layout.size + 3
        assert layout.generations == 2
        assert layout.flag_address(0) == layout.flags_base
        assert layout.flag_address(2) == layout.flags_base + 2
        with pytest.raises(ValueError):
            layout.flag_address(3)

    def test_position_mult_exceeds_exit_marker(self):
        layout = GenerationalX([TrivialTasks()]).build_layout(8, 4)
        assert layout.position_mult > 2 * layout.n

    def test_requires_phases(self):
        with pytest.raises(ValueError):
            GenerationalX([])

    def test_three_trivial_generations(self):
        """Three plain Write-All rounds over the same structures: every
        x cell ends at generation 3."""
        from repro.core.generational import done_flags_predicate
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        algorithm = GenerationalX([TrivialTasks()] * 3)
        layout = algorithm.build_layout(16, 8)
        memory = SharedMemory(layout.size)
        algorithm.initialize_memory(memory, layout)
        machine = Machine(8, memory, context={"layout": layout})
        machine.load_program(algorithm.program(layout))
        ledger = machine.run(
            until=done_flags_predicate(layout, machine.ledger, {}),
            max_ticks=100_000,
        )
        assert ledger.goal_reached
        assert all(memory.peek(layout.x_base + i) == 3 for i in range(16))

    def test_generations_under_churn(self):
        from repro.core.generational import done_flags_predicate
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        algorithm = GenerationalX([TrivialTasks()] * 4)
        layout = algorithm.build_layout(16, 16)
        memory = SharedMemory(layout.size)
        algorithm.initialize_memory(memory, layout)
        adversary = RandomAdversary(0.15, 0.35, seed=4)
        machine = Machine(16, memory, adversary=adversary,
                          context={"layout": layout})
        machine.load_program(algorithm.program(layout))
        ledger = machine.run(
            until=done_flags_predicate(layout, machine.ledger, {}),
            max_ticks=1_000_000,
        )
        assert ledger.goal_reached
        assert all(memory.peek(layout.x_base + i) == 4 for i in range(16))


@pytest.mark.parametrize("key", sorted(PINNED_RUNS))
def test_pinned_runs(key):
    # The no-reset executor runs X's own walk, so a change to that walk
    # must leave these model results where they are.
    name, p, adversary, interval = key
    build, data = PROGRAMS[name]
    result = PersistentSimulator(
        p, adversary=registry.build(adversary, seed=0),
        checkpoint=CheckpointPolicy(interval) if interval else None,
    ).execute(build(8), data)
    ledger = result.ledger
    assert (
        result.solved, ledger.completed_work, ledger.charged_work,
        ledger.pattern_size, ledger.ticks, result.memory,
    ) == PINNED_RUNS[key]
    assert result.memory == ideal_run(build(8), data)


class TestPhaseTicks:
    def test_failure_free_flags(self):
        result = PersistentSimulator(2).execute(
            prefix_sum_program(8), list(range(8))
        )
        assert result.phase_ticks == {
            1: 45, 2: 90, 3: 135, 4: 180, 5: 225, 6: 270,
        }
        assert result.ledger.ticks == 270

    @pytest.mark.parametrize("seed", range(3))
    def test_phase_tick_is_the_tick_that_raised_the_flag(self, seed):
        # A tracer samples each flag at the start of every tick, before
        # that tick's writes: flag g is first seen one tick after the
        # tick whose writes raised it.  The run ends on the tick that
        # raises the last flag, so no sample sees that one.
        width, p = 8, 4
        program = prefix_sum_program(width)
        layout = plan_layout(width, p, 2 * len(list(program.writing_steps())))
        flags = {
            g: layout.flag_address(g)
            for g in range(1, layout.generations + 1)
        }
        tracer = Tracer(watch=flags.values())
        result = PersistentSimulator(p, adversary=UnionAdversary(
            [tracer, RandomAdversary(0.1, 0.3, seed=seed)]
        )).execute(program, list(range(width)))
        assert result.solved
        assert result.generations == layout.generations
        seen = {
            g: min(
                (tick for tick, value in tracer.watched_series(address)
                 if value),
                default=None,
            )
            for g, address in flags.items()
        }
        final = layout.generations
        assert seen[final] is None
        assert result.phase_ticks[final] == result.ledger.ticks
        for g in range(1, final):
            assert result.phase_ticks[g] == seen[g] - 1


class TestAdversaryReachesTheMachine:
    def test_stalls_apply(self):
        # Speed classes act only through stalls: the run takes longer
        # than the failure-free one and still computes the ideal answer.
        program, data = prefix_sum_program(4), [0, 7, 3, 10]
        free = PersistentSimulator(4).execute(program, data)
        slow = PersistentSimulator(
            4, adversary=registry.build("speed-classes", seed=0)
        ).execute(program, data)
        assert (free.ledger.completed_work, free.ledger.ticks) == (208, 52)
        assert (slow.ledger.completed_work, slow.ledger.ticks) == (209, 76)
        assert slow.ledger.pattern_size == 0
        assert slow.solved
        assert slow.memory == free.memory == ideal_run(program, data)

    def test_failure_free_run_fuses_its_ticks(self, monkeypatch):
        # With no adversary nothing is consulted per tick, so every tick
        # runs in a fused window and none goes through step().
        calls = []
        step = Machine.step

        def counting_step(machine):
            calls.append(machine.ledger.ticks)
            return step(machine)

        monkeypatch.setattr(Machine, "step", counting_step)
        result = PersistentSimulator(4).execute(
            odd_even_sort_program(16), list(range(16))[::-1]
        )
        assert result.solved
        assert result.memory[:16] == list(range(16))
        assert result.ledger.ticks > 0
        assert calls == []


class TestPersistentSimulator:
    def test_matches_reset_based_executor(self):
        rng = random.Random(1)
        m = 16
        data = [rng.randint(0, 9) for _ in range(m)]
        program = prefix_sum_program(m)
        reset_based = RobustSimulator(p=8, adversary=NoFailures()).execute(
            program, data
        )
        persistent = PersistentSimulator(p=8, adversary=NoFailures()).execute(
            program, data
        )
        assert persistent.solved
        assert persistent.memory == reset_based.memory

    @pytest.mark.parametrize("seed", range(4))
    def test_programs_under_churn(self, seed):
        rng = random.Random(seed)
        m = 12
        data = [rng.randint(0, 50) for _ in range(m)]
        simulator = PersistentSimulator(
            p=6, adversary=RandomAdversary(0.1, 0.3, seed=seed)
        )
        result = simulator.execute(odd_even_sort_program(m), data)
        assert result.solved
        assert result.memory[:m] == sorted(data)

    def test_failures_span_phase_boundaries(self):
        """A processor crashed mid-program stays down for the remaining
        phases (no harness resurrection) and the rest still finish."""
        m = 16
        data = list(range(m))
        adversary = NoRestartAdversary(RandomAdversary(0.03, seed=9))
        result = PersistentSimulator(p=8, adversary=adversary).execute(
            prefix_sum_program(m), data
        )
        assert result.solved
        assert result.ledger.pattern.restart_count == 0
        assert result.ledger.pattern.failure_count > 0
        assert result.memory == [sum(data[: i + 1]) for i in range(m)]

    def test_mass_extinction_mid_program(self):
        m = 16
        data = [1] * m
        schedule = {40: (list(range(8)), []), 44: ([], [2, 5])}
        result = PersistentSimulator(
            p=8, adversary=ScheduledAdversary(schedule)
        ).execute(prefix_sum_program(m), data)
        assert result.solved
        assert result.memory == [i + 1 for i in range(m)]

    def test_phase_clock_is_monotone_and_complete(self):
        m = 16
        result = PersistentSimulator(p=8).execute(
            max_find_program(m), list(range(m))
        )
        assert result.solved
        assert sorted(result.phase_ticks) == list(
            range(1, result.generations + 1)
        )
        ticks = [result.phase_ticks[g] for g in sorted(result.phase_ticks)]
        assert ticks == sorted(ticks)

    def test_single_ledger_accounts_everything(self):
        m = 8
        result = PersistentSimulator(p=4).execute(
            prefix_sum_program(m), [1] * m
        )
        assert result.total_work == result.ledger.completed_work
        assert result.total_work > 0

    def test_empty_program(self):
        program = SimProgram(width=4, memory_size=4, steps=[SimStep()],
                             name="noop")
        result = PersistentSimulator(p=2).execute(program, [5, 6, 7, 8])
        assert result.solved
        assert result.memory == [5, 6, 7, 8]
        assert result.generations == 0

    def test_rejects_oversized_memory(self):
        with pytest.raises(ValueError, match="exceed"):
            PersistentSimulator(p=2).execute(
                prefix_sum_program(4), [0] * 5
            )
