"""Tests for the fuzz driver: convergence, draws, and the planted-bug
mutation check (a fuzzer that cannot catch a real executor bug is
decoration)."""

import pytest

import repro.simulation.executor as executor_module
from repro.fuzz.driver import (
    ADVERSARY_DRAWS,
    LANES,
    AdversaryDraw,
    draw_adversary_spec,
    execute_lane,
    run_fuzz,
)
from repro.fuzz.fixtures import load_fixtures, replay_fixture
from repro.fuzz.generator import (
    generate_initial_memory,
    generate_program,
    int_draw,
)
from repro.pram.cycles import Cycle, Write


class TestLanesAndDraws:
    def test_lane_table_matches_differential_modes(self):
        # The driver enumerates the shared registry (repro.pram.lanes);
        # the reference lane must stay last (differential anchor).
        assert list(LANES) == [
            "fast", "noff", "nokernel", "auto", "reference"
        ]

        def switches(name):
            kwargs = LANES[name].solver_kwargs()
            return (
                kwargs["fast_path"],
                kwargs["fast_forward"],
                kwargs["compiled"],
                kwargs["vectorized"],
            )

        assert switches("fast") == (True, True, True, False)
        assert switches("noff") == (True, False, True, False)
        assert switches("nokernel") == (True, True, False, False)
        assert switches("auto") == (True, True, True, True)
        assert switches("reference") == (False, False, False, False)

    def test_adversary_draws_are_pure(self):
        assert draw_adversary_spec(0, 7) == draw_adversary_spec(0, 7)

    def test_adversary_draws_cover_registry(self):
        names = {
            draw_adversary_spec(0, iteration).name
            for iteration in range(200)
        }
        assert names == set(ADVERSARY_DRAWS)

    def test_adversary_specs_build(self):
        for iteration in range(len(ADVERSARY_DRAWS) * 4):
            adversary = draw_adversary_spec(3, iteration).build()
            assert adversary is not None

    def test_every_drawn_adversary_faults_some_draw(self):
        # A drawn adversary that never acts within a fuzz phase only
        # repeats the fault-free run.  Each name but `none` must change
        # at least one of its draws among the first 60 iterations of
        # seed 0: |F| > 0, or a tick count other than the fault-free
        # run's on the same program and P (the iteration's own draws).
        def outcome(iteration, adversary):
            program = generate_program(
                int_draw(0, 0, 2**31 - 1, "program", iteration)
            )
            initial = generate_initial_memory(
                int_draw(0, 0, 2**31 - 1, "initial", iteration),
                program.memory_size,
            )
            p = int_draw(0, 1, 4, "p", iteration)
            result = execute_lane(program, initial, "fast", adversary, p)
            ticks = sum(record.ledger.ticks for record in result.phases)
            return result.total_pattern_size, ticks

        changed = {name: 0 for name in ADVERSARY_DRAWS if name != "none"}
        for iteration in range(60):
            drawn = draw_adversary_spec(0, iteration)
            if drawn.name == "none":
                continue
            faults, ticks = outcome(iteration, drawn)
            quiet = outcome(iteration, AdversaryDraw("none"))[1]
            changed[drawn.name] += faults > 0 or ticks != quiet
        assert all(changed.values()), changed

    def test_unknown_lane_rejected(self):
        with pytest.raises(ValueError, match="unknown lane"):
            run_fuzz(iterations=1, lanes=("fast", "warp"))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="iterations"):
            run_fuzz(iterations=0)
        with pytest.raises(ValueError, match="passes"):
            run_fuzz(iterations=1, passes=0)


class TestConvergence:
    def test_small_soak_converges(self):
        outcome = run_fuzz(seed=1, iterations=6)
        assert outcome.converged
        assert not outcome.failures
        assert outcome.executions == 6 * len(LANES) * 3
        assert outcome.lanes == tuple(LANES)
        assert sum(outcome.adversary_histogram.values()) == 6

    def test_lane_subset_runs(self):
        outcome = run_fuzz(seed=2, iterations=3, passes=1,
                           lanes=("fast", "reference"))
        assert outcome.converged
        assert outcome.executions == 3 * 2


def _plant_commit_bug(monkeypatch):
    """Commit installs value+1 whenever the target is simulated cell 0."""
    original = executor_module._commit_task_factory

    def buggy(step, slots, width, staging_base, sim_base):
        factory = original(step, slots, width, staging_base, sim_base)

        def wrapped(element, pid):
            cycles = []
            for cycle in factory(element, pid):
                if cycle.label == "sim:commit":
                    inner = cycle.writes

                    def writes(values, inner=inner):
                        return tuple(
                            Write(w.address,
                                  w.value + (1 if w.address == sim_base
                                             else 0))
                            for w in inner(values)
                        )

                    cycle = Cycle(reads=cycle.reads, writes=writes,
                                  label=cycle.label)
                cycles.append(cycle)
            return cycles

        return wrapped

    monkeypatch.setattr(executor_module, "_commit_task_factory", buggy)


class TestMutationCatch:
    """The acceptance gate: a planted executor bug must be caught,
    shrunk to a tiny program, and guarded by a replayable fixture."""

    def test_planted_bug_is_caught_shrunk_and_fixed_fixture(
        self, monkeypatch, tmp_path
    ):
        _plant_commit_bug(monkeypatch)
        outcome = run_fuzz(
            seed=0, iterations=10, passes=1,
            fixture_dir=tmp_path, max_fixtures=2,
        )
        assert not outcome.converged
        assert outcome.failures
        failure = outcome.failures[0]
        assert failure.kind == "mismatch"
        assert failure.shrunk_program is not None
        # Minimal reproduction: at most 3 steps (in practice 1).
        assert len(failure.shrunk_program.steps) <= 3
        assert outcome.fixture_paths

        # With the bug still planted, the fixture replays as failing.
        fixtures = load_fixtures(tmp_path)
        assert fixtures
        replay = replay_fixture(fixtures[0][1])
        assert not replay.ok
        assert "diverges" in " ".join(replay.problems)

        # With the bug reverted, the same fixture passes — exactly what
        # tests/fuzz/test_fixtures.py asserts forever after.
        monkeypatch.undo()
        replay = replay_fixture(fixtures[0][1])
        assert replay.ok, replay.problems

    def test_planted_bug_detected_even_without_failures(self, monkeypatch):
        # Under the 'none' adversary the robust run is failure-free;
        # the differential check alone must still catch the bug.
        _plant_commit_bug(monkeypatch)
        outcome = run_fuzz(
            seed=0, iterations=10, passes=1, lanes=("fast",),
            max_fixtures=0,
        )
        assert not outcome.converged
