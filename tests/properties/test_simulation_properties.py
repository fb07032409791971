"""Property-based tests: robust simulation equals failure-free reference.

The central guarantee of Theorem 4.1 is *semantic transparency*: a
program executed through the iterated Write-All machinery must compute
exactly what the ideal synchronous PRAM computes, for any failure
pattern.  Hypothesis generates random programs and adversaries; the
library's ideal PRAM (``repro.simulation.classify.ideal_run``) gives the
expected memory.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AlgorithmVX, AlgorithmX
from repro.faults import RandomAdversary
from repro.simulation import FunctionStep, RobustSimulator, SimProgram
from repro.simulation.classify import ideal_run

COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_program(rng, width, memory_size, num_steps):
    """A random straight-line PRAM program with static addresses.

    Write sets are disjoint across simulated processors within a step
    (CREW-style): concurrent writes with different values would be
    ARBITRARY CRCW, whose winner is legitimately nondeterministic under
    the robust executor, so the exclusive-write ideal PRAM could not
    predict it (``ideal_run`` raises on a cell written twice).
    """
    steps = []
    for _step in range(num_steps):
        read_map = {
            i: tuple(
                rng.randrange(memory_size)
                for _ in range(rng.randint(0, 3))
            )
            for i in range(width)
        }
        pool = list(range(memory_size))
        rng.shuffle(pool)
        write_map = {}
        for i in range(width):
            count = min(rng.randint(0, 2), len(pool))
            write_map[i] = tuple(sorted(pool[:count]))
            pool = pool[count:]
        op = rng.choice(["sum", "max", "const"])
        constant = rng.randrange(100)

        def compute(i, values, op=op, constant=constant,
                    write_map=write_map):
            if op == "sum":
                base = sum(values)
            elif op == "max":
                base = max(values) if values else 0
            else:
                base = constant
            return tuple(base + j for j in range(len(write_map[i])))

        steps.append(
            FunctionStep(
                reads=lambda i, read_map=read_map: read_map[i],
                writes=lambda i, write_map=write_map: write_map[i],
                compute=compute,
                label="random",
            )
        )
    return SimProgram(width=width, memory_size=memory_size, steps=steps,
                      name="random")


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    width=st.integers(min_value=1, max_value=6),
    num_steps=st.integers(min_value=1, max_value=4),
    fail=st.floats(min_value=0.0, max_value=0.2),
)
@settings(**COMMON_SETTINGS)
def test_robust_execution_matches_reference(seed, width, num_steps, fail):
    rng = random.Random(seed)
    memory_size = width + rng.randint(1, 4)
    program = random_program(rng, width, memory_size, num_steps)
    initial = [rng.randrange(50) for _ in range(memory_size)]

    from repro.pram.policies import PriorityCrcw

    simulator = RobustSimulator(
        p=max(1, width),
        algorithm=AlgorithmX(),
        adversary=RandomAdversary(fail, 0.4, seed=seed + 1),
        policy=PriorityCrcw(),
    )
    result = simulator.execute(program, initial)
    assert result.solved
    assert result.memory == ideal_run(program, initial)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(**COMMON_SETTINGS)
def test_simulation_is_failure_pattern_independent(seed):
    """Different adversaries, identical results."""
    rng = random.Random(seed)
    program = random_program(rng, 4, 6, 3)
    initial = [rng.randrange(20) for _ in range(6)]

    from repro.pram.policies import PriorityCrcw

    outcomes = []
    for fail, algorithm in [(0.0, AlgorithmX()), (0.15, AlgorithmX()),
                            (0.1, AlgorithmVX())]:
        simulator = RobustSimulator(
            p=4, algorithm=algorithm,
            adversary=RandomAdversary(fail, 0.5, seed=seed),
            policy=PriorityCrcw(),
        )
        result = simulator.execute(program, initial)
        assert result.solved
        outcomes.append(tuple(result.memory))
    assert len(set(outcomes)) == 1
