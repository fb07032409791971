"""Paper claims that are not Write-All sweep grids.

The grid claims live next to their data in the benchmark registry
(:mod:`repro.experiments.bench`) and ``repro bench`` checks them.  These
three run whole PRAM programs or a run-specific off-line schedule, so
they are asserted here, with the same bounds:

* E11 — Theorem 4.1 / Corollary 4.12: real programs on the iterated
  Write-All executor;
* A5 — the reset-based and the generational ([Shv 89]) executors;
* E12 — Section 5: stalking defeats randomized ACC on-line only.
"""

import math
import random

import pytest

from repro.core import AccAlgorithm, AlgorithmVX, AlgorithmX, solve_write_all
from repro.faults import (
    AccStalker,
    FailureBudgetAdversary,
    NoRestartAdversary,
    RandomAdversary,
    ScheduledAdversary,
)
from repro.simulation import PersistentSimulator, RobustSimulator
from repro.simulation.programs import (
    max_find_program,
    odd_even_sort_program,
    prefix_sum_program,
)


def test_e11_simulation_is_work_optimal_with_slack():
    """S = O(tau N) and per-step sigma = O(log^2 N) on N / log^2 N
    processors under O(N / log N) failures per step."""
    n = 64
    rng = random.Random(7)
    data = [rng.randint(0, 99) for _ in range(n)]
    workloads = [
        ("prefix-sum", prefix_sum_program(n),
         lambda memory: memory[:n] == [sum(data[:i + 1]) for i in range(n)]),
        ("max-find", max_find_program(n),
         lambda memory: memory[n] == max(data)),
        ("odd-even-sort", odd_even_sort_program(n),
         lambda memory: memory[:n] == sorted(data)),
    ]
    log_n = math.log2(n)
    # N / log^2 N rounds to 1 at this size; keep at least two processors
    # so the adversary's failures are not all vetoed away.
    p = max(2, int(n // log_n ** 2))
    for label, program, correct in workloads:
        adversary = FailureBudgetAdversary(
            RandomAdversary(0.05, 0.4, seed=11),
            int(len(program) * n / log_n),
        )
        result = RobustSimulator(
            p=p, algorithm=AlgorithmVX(), adversary=adversary,
        ).execute(program, list(data))
        assert result.solved, label
        assert correct(result.memory), f"{label}: wrong answer"
        assert result.total_work / (len(program) * n) <= 16.0, label
        assert result.max_step_overhead_ratio <= 6 * log_n ** 2, label


def test_a5_persistent_matches_reset_based():
    """Same answers at comparable work: persistent / reset <= 4."""
    width = 32
    rng = random.Random(3)
    data = [rng.randint(0, 99) for _ in range(width)]
    for program in (prefix_sum_program(width), max_find_program(width),
                    odd_even_sort_program(width)):
        reset_based = RobustSimulator(
            p=8, algorithm=AlgorithmX(),
            adversary=RandomAdversary(0.08, 0.3, seed=6),
        ).execute(program, list(data))
        persistent = PersistentSimulator(
            p=8, adversary=RandomAdversary(0.08, 0.3, seed=6),
        ).execute(program, list(data))
        assert reset_based.solved and persistent.solved
        assert reset_based.memory == persistent.memory
        assert persistent.total_work / reset_based.total_work <= 4.0


def offline_schedule(n):
    """A committed schedule with stalker-like volume, blind to the run."""
    schedule = {}
    for tick in range(2, 200, 3):
        victims = [(tick * 7 + k) % n for k in range(n // 4)]
        schedule[tick] = (victims, [])
        schedule[tick + 1] = ([], victims)
    return ScheduledAdversary(schedule)


@pytest.mark.slow
def test_e12_stalker_defeats_acc_online_only():
    n = 32
    free = solve_write_all(AccAlgorithm(seed=5), n, n)
    assert free.solved
    offline = solve_write_all(
        AccAlgorithm(seed=5), n, n, adversary=offline_schedule(n),
        max_ticks=500_000,
    )
    assert offline.solved
    # Off-line: within a small multiple of failure-free time.
    assert offline.parallel_time <= 20 * free.parallel_time + 100
    failstop = solve_write_all(
        AccAlgorithm(seed=5), n, n,
        adversary=NoRestartAdversary(AccStalker(fail_stop=True)),
        max_ticks=2_000_000,
    )
    assert failstop.solved
    # On-line fail-stop: the stalker whittles the crew to a lone
    # survivor (|F| ~ N-1) with a clear slowdown.  (The paper's
    # Omega(N^2/polylog) constant is muted in this reconstruction
    # because progress marks are shared; see DESIGN.md substitutions.)
    assert failstop.ledger.pattern.failure_count >= n - 2
    assert failstop.parallel_time >= 1.4 * free.parallel_time
    assert failstop.completed_work >= 1.2 * free.completed_work
    # On-line restart: the target is starved within the budget.
    restart = solve_write_all(
        AccAlgorithm(seed=5), n, n, adversary=AccStalker(), max_ticks=30_000,
    )
    assert not restart.solved
