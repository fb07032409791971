"""Property-based tests for the generational Write-All invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.generational import (
    GenerationalX,
    done_flags_predicate,
)
from repro.core.tasks import TrivialTasks
from repro.faults import RandomAdversary, UnionAdversary
from repro.faults.base import Adversary
from repro.pram.failures import Decision
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory

COMMON_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class GenerationInvariantObserver(Adversary):
    """Checks the generational invariants every tick.

    1. flags form a monotone prefix: done[g] set implies done[g-1] set;
    2. x cells never exceed the highest prefix-complete generation + 1
       (work for generation g only happens once g-1 is flagged);
    3. x and d cells are monotone non-decreasing.
    """

    def __init__(self, layout):
        self.layout = layout
        self.violations = []
        self._last_cells = {}

    def decide(self, view):
        layout = self.layout
        flags = [
            view.memory.read(layout.flag_address(g))
            for g in range(layout.generations + 1)
        ]
        for g in range(1, len(flags)):
            if flags[g] and not flags[g - 1]:
                self.violations.append(("flag-gap", view.time, g))
        frontier = 0
        for g, flag in enumerate(flags):
            if flag:
                frontier = g
            else:
                break
        watch = list(range(layout.x_base, layout.x_base + layout.n))
        watch += [
            layout.tree.address(node) for node in range(1, 2 * layout.n)
        ]
        for address in watch:
            value = view.memory.read(address)
            if value > frontier + 1:
                self.violations.append(
                    ("ahead-of-frontier", view.time, address, value, frontier)
                )
            previous = self._last_cells.get(address)
            if previous is not None and value < previous:
                self.violations.append(
                    ("regressed", view.time, address, previous, value)
                )
            self._last_cells[address] = value
        return Decision.none()


@given(
    n=st.sampled_from([2, 4, 8]),
    p=st.integers(min_value=1, max_value=12),
    generations=st.integers(min_value=1, max_value=4),
    fail=st.floats(min_value=0.0, max_value=0.25),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(**COMMON_SETTINGS)
def test_generational_invariants_hold(n, p, generations, fail, seed):
    algorithm = GenerationalX([TrivialTasks()] * generations)
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    algorithm.initialize_memory(memory, layout)
    observer = GenerationInvariantObserver(layout)
    adversary = UnionAdversary(
        [observer, RandomAdversary(fail, 0.4, seed=seed)]
    )
    machine = Machine(p, memory, adversary=adversary,
                      context={"layout": layout})
    machine.load_program(algorithm.program(layout))
    ledger = machine.run(
        until=done_flags_predicate(layout, machine.ledger, {}),
        max_ticks=2_000_000,
    )
    assert ledger.goal_reached
    assert observer.violations == []
    # Postcondition: every x cell reached the final generation.
    assert all(
        memory.peek(layout.x_base + i) == generations for i in range(n)
    )
