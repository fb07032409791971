"""Cross-lane differential tests for every library PRAM program.

Each program in :mod:`repro.simulation.programs` runs through every
machine lane of the shared registry (:mod:`repro.pram.lanes`) under
crash/restart churn, failure bursts and speed-class stalls, and every
run's final simulated memory must be
bit-identical to the fault-free reference execution — Theorem 4.1's
semantic transparency, asserted program x adversary x lane — and every
phase's ledger must equal the reference lane's.  The
Write-All differential suite (``tests/pram/``) proves lane identity for
the *solver*; this suite proves it for the *simulation layer* on real
workloads.
"""

import random

import pytest

from repro.core import AlgorithmVX, AlgorithmX
from repro.faults import (
    BurstAdversary,
    NoFailures,
    RandomAdversary,
    SpeedClassAdversary,
)
from repro.pram.lanes import LANES
from repro.simulation import RobustSimulator
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

# The lanes come straight from the shared registry (reference last).
# The robust phases use non-trivial task sets, which run on the compiled
# kernels of the fast, noff and auto lanes (no vector program runs task
# cycles) and on the generators of the nokernel and reference lanes.

ADVERSARIES = {
    "random": lambda: RandomAdversary(0.12, 0.35, seed=5),
    "burst": lambda: BurstAdversary(period=3, fraction=0.5, downtime=1),
    "speed-classes": lambda: SpeedClassAdversary(seed=3),
}


def _programs():
    rng = random.Random(11)
    m = 8
    data = [rng.randint(0, 50) for _ in range(m)]
    successor = list(range(1, m)) + [m - 1]
    ranking_initial, _ = list_ranking_input(successor)
    ring = [[(v - 1) % m, (v + 1) % m] for v in range(m)]
    coefficients = [rng.randint(-3, 3) for _ in range(m)]
    matrix_m = 4
    matvec_initial = (
        [rng.randint(-3, 3) for _ in range(matrix_m * matrix_m)]
        + [rng.randint(-3, 3) for _ in range(matrix_m)]
        + [0] * matrix_m
    )
    return {
        "prefix-sum": (prefix_sum_program(m), list(data)),
        "max-find": (max_find_program(m), list(data)),
        "list-ranking": (list_ranking_program(m), ranking_initial),
        "odd-even-sort": (odd_even_sort_program(m), list(data)),
        "bfs": (bfs_program(ring, rounds=m), bfs_input(m, [0])),
        "polynomial": (polynomial_program(m),
                       polynomial_input(coefficients, 2)),
        "matvec": (matvec_program(matrix_m), matvec_initial),
    }


PROGRAMS = _programs()


ALGORITHMS = {"X": AlgorithmX, "VX": AlgorithmVX}


def execute(program, initial, adversary, lane, algorithm=None):
    simulator = RobustSimulator(
        p=4,
        algorithm=algorithm if algorithm is not None else AlgorithmX(),
        adversary=adversary,
        **LANES[lane].solver_kwargs(),
    )
    return simulator.execute(program, list(initial))


def ledger_fields(ledger):
    """Everything a phase's ledger records, for exact comparison."""
    return (
        ledger.ticks,
        dict(ledger.completed_by_pid),
        dict(ledger.attempted_by_pid),
        list(ledger.pattern),
        list(ledger.completed_per_tick),
        ledger.memory_reads,
        ledger.memory_writes,
        ledger.progress_vetoes,
        ledger.fairness_vetoes,
        (ledger.halted, ledger.goal_reached, ledger.stalled,
         ledger.tick_limited),
    )


@pytest.fixture(scope="module")
def fault_free_memories():
    """The reference-lane, failure-free memory per program — the
    differential baseline every faulty lane must reproduce exactly."""
    baselines = {}
    for name, (program, initial) in PROGRAMS.items():
        result = execute(program, initial, NoFailures(), "reference")
        assert result.solved
        baselines[name] = result.memory
    return baselines


class TestEveryProgramEveryLane:
    @pytest.mark.parametrize("adversary_key", sorted(ADVERSARIES))
    @pytest.mark.parametrize("lane", sorted(LANES))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_lane_matches_fault_free_baseline(
        self, name, lane, adversary_key, fault_free_memories
    ):
        program, initial = PROGRAMS[name]
        result = execute(
            program, initial, ADVERSARIES[adversary_key](), lane
        )
        assert result.solved
        assert result.memory == fault_free_memories[name]

    @pytest.mark.parametrize("algorithm", ["X", "VX"])
    @pytest.mark.parametrize("adversary_key", sorted(ADVERSARIES))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_phase_ledgers_identical_across_lanes(
        self, name, adversary_key, algorithm
    ):
        # The kernel lanes run every phase's task cycles through the
        # machine's interpretation, the nokernel and reference lanes
        # through the generators: each phase's ledger must not tell
        # them apart.
        program, initial = PROGRAMS[name]
        runs = [
            execute(program, initial, ADVERSARIES[adversary_key](), lane,
                    ALGORITHMS[algorithm]())
            for lane in LANES
        ]
        reference = runs[-1]
        assert list(LANES)[-1] == "reference"
        for result in runs[:-1]:
            assert len(result.phases) == len(reference.phases)
            for phase, ref_phase in zip(result.phases, reference.phases):
                assert (phase.step_index, phase.phase, phase.solved) == \
                    (ref_phase.step_index, ref_phase.phase, ref_phase.solved)
                assert ledger_fields(phase.ledger) == \
                    ledger_fields(ref_phase.ledger)
            assert result.memory == reference.memory

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_adversaries_actually_injected_faults(self, name):
        program, initial = PROGRAMS[name]
        result = execute(
            program, initial, ADVERSARIES["random"](), "fast"
        )
        assert result.total_pattern_size > 0

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_stalls_cost_time_not_failures(self, name):
        # The stall axis must actually act: speed classes stretch the
        # phases' parallel time while the failure pattern stays empty.
        program, initial = PROGRAMS[name]
        free = execute(program, initial, NoFailures(), "fast")
        stalled = execute(
            program, initial, ADVERSARIES["speed-classes"](), "fast"
        )
        assert stalled.total_pattern_size == 0
        assert sum(phase.ledger.ticks for phase in stalled.phases) > \
            sum(phase.ledger.ticks for phase in free.phases)


class TestSemanticSpotChecks:
    """The baselines themselves compute what the programs claim."""

    def test_prefix_sum_baseline(self, fault_free_memories):
        _, data = PROGRAMS["prefix-sum"]
        assert fault_free_memories["prefix-sum"] == [
            sum(data[: i + 1]) for i in range(len(data))
        ]

    def test_max_find_baseline(self, fault_free_memories):
        _, data = PROGRAMS["max-find"]
        m = len(data)
        assert fault_free_memories["max-find"][m] == max(data)

    def test_sort_baseline(self, fault_free_memories):
        _, data = PROGRAMS["odd-even-sort"]
        assert fault_free_memories["odd-even-sort"] == sorted(data)

    def test_bfs_baseline(self, fault_free_memories):
        m = 8
        assert fault_free_memories["bfs"] == [
            min(v, m - v) for v in range(m)
        ]

    def test_list_ranking_baseline(self, fault_free_memories):
        m = 8
        assert fault_free_memories["list-ranking"][m:] == [
            m - 1 - i for i in range(m)
        ]
