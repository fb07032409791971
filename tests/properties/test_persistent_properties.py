"""Property-based tests: the persistent executor equals the ideal PRAM.

Same ideal-PRAM check as test_simulation_properties, but through the
generational no-reset pipeline — stressing that generation tags fully
isolate phases even when failures span them.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import RandomAdversary
from repro.simulation import PersistentSimulator
from repro.simulation.classify import ideal_run

from tests.properties.test_simulation_properties import random_program

COMMON_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    width=st.integers(min_value=1, max_value=5),
    num_steps=st.integers(min_value=1, max_value=4),
    fail=st.floats(min_value=0.0, max_value=0.15),
)
@settings(**COMMON_SETTINGS)
def test_persistent_execution_matches_reference(seed, width, num_steps, fail):
    rng = random.Random(seed)
    memory_size = width + rng.randint(1, 4)
    program = random_program(rng, width, memory_size, num_steps)
    initial = [rng.randrange(50) for _ in range(memory_size)]

    simulator = PersistentSimulator(
        p=max(1, width),
        adversary=RandomAdversary(fail, 0.4, seed=seed + 1),
    )
    result = simulator.execute(program, initial)
    assert result.solved
    assert result.memory == ideal_run(program, initial)
    # Generation flags rose in order.
    ticks = [result.phase_ticks[g] for g in sorted(result.phase_ticks)]
    assert ticks == sorted(ticks)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(**COMMON_SETTINGS)
def test_persistent_and_reset_based_agree(seed):
    from repro.core import AlgorithmX
    from repro.simulation import RobustSimulator

    rng = random.Random(seed)
    program = random_program(rng, 4, 6, 3)
    initial = [rng.randrange(20) for _ in range(6)]

    reset_based = RobustSimulator(
        p=4, algorithm=AlgorithmX(),
        adversary=RandomAdversary(0.1, 0.4, seed=seed),
    ).execute(program, initial)
    persistent = PersistentSimulator(
        p=4, adversary=RandomAdversary(0.1, 0.4, seed=seed),
    ).execute(program, initial)
    assert reset_based.solved and persistent.solved
    assert reset_based.memory == persistent.memory
