"""The observable tick's status caches against a walk of the processors.

The fast tick keeps the running processors and the failed pids cached
and updates them from its own failures, halts and restarts; only a
transition made outside a tick, or an error that cuts a tick short,
leaves them to a full rebuild.  These tests drive ``Machine.step()``
and compare, after every tick, the caches with a walk of
``machine.processors``, and, at every decide, the view's status table
with ``machine.statuses()``.
"""

from __future__ import annotations

import pytest

from repro.core import AlgorithmX
from repro.faults import registry
from repro.faults.base import Adversary, ScheduledAdversary
from repro.pram.compiled import CompiledProgram
from repro.pram.cycles import Cycle, Write
from repro.pram.failures import Decision, FailureTag
from repro.pram.lanes import LANES
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.processor import ProcessorStatus

#: The lanes whose ticks differ in how processors move: kernel steppers
#: (fast), generators (nokernel) and the reference tick.
CACHE_LANES = ("fast", "nokernel", "reference")
SIZES = (1, 2, 64, 128)
#: Ticks compared per run: every transition kind shows up well before.
TICKS = 150

ADVERSARIES = {
    "thrashing": lambda seed: registry.build("thrashing", seed),
    "random": lambda seed: registry.build("random", seed),
    "halving": lambda seed: registry.build("halving", seed),
    "stalker": lambda seed: registry.build("stalker", seed),
    "crash": lambda seed: registry.build("crash", seed),
    "speed-classes": lambda seed: registry.build("speed-classes", seed),
    "budgeted-random": lambda seed: registry.build("random", seed, budget=40),
    # Fails and restarts one pid in the same tick, then the lowest pid
    # on its own, then both again.
    "same-tick": lambda seed: ScheduledAdversary({
        2: ([0], [0]), 3: ([0], []), 5: ([], [0]), 6: ([0, 1], [0, 1]),
    }),
}


def walk(machine):
    """The running processors and failed pids, from every processor."""
    processors = machine.processors
    return (
        [proc for proc in processors if proc.status is ProcessorStatus.RUNNING],
        tuple(
            proc.pid for proc in processors
            if proc.status is ProcessorStatus.FAILED
        ),
    )


class Watch(Adversary):
    """Checks every view against the machine, then lets ``inner`` rule."""

    def __init__(self, inner):
        self.inner = inner
        self.machine = None
        self.views = 0

    def decide(self, view):
        machine = self.machine
        assert dict(view.statuses) == machine.statuses()
        assert view.statuses == machine.statuses()
        assert len(view.statuses) == machine.num_processors
        running, failed = walk(machine)
        assert view.failed_pids == failed
        assert view.running_pids == tuple(proc.pid for proc in running)
        assert tuple(view.pending) == view.running_pids
        self.views += 1
        return self.inner.decide(view)


def assert_caches_follow(machine):
    """After a fast tick the caches are current and equal the walk."""
    if not machine.fast_path:
        return
    assert machine._cache_epoch == machine._status_epoch[0]
    running, failed = walk(machine)
    assert machine._running_cache == running
    assert machine._failed_pids == failed


def x_machine(p, adversary, lane):
    algorithm = AlgorithmX()
    n = max(16, p)
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    algorithm.initialize_memory(memory, layout)
    machine = Machine(
        num_processors=p, memory=memory, adversary=adversary,
        context={"layout": layout, "algorithm": algorithm.name},
        fast_path=LANES[lane].fast_path,
    )
    kernel = None
    if LANES[lane].compiled:
        kernel = algorithm.compiled_program(layout, None)
    machine.load_program(algorithm.program(layout, None), kernel)
    return machine, algorithm.until_predicate(layout)


def drive(machine, until=None, ticks=TICKS):
    """Step ``machine``, checking the caches after every tick."""
    for _ in range(ticks):
        live = machine.step()
        assert_caches_follow(machine)
        if not live or (until is not None and until(machine._reader)):
            break


@pytest.mark.parametrize("lane", CACHE_LANES)
@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("adversary_key", sorted(ADVERSARIES))
def test_caches_equal_the_walk_on_every_tick(adversary_key, p, lane):
    adversary = ADVERSARIES[adversary_key](p)
    adversary.reset()
    watch = Watch(adversary)
    machine, until = x_machine(p, watch, lane)
    watch.machine = machine
    drive(machine, until)
    assert watch.views > 0


# ---------------------------------------------------------------------- #
# Programs that halt at restart, and a raise in the middle of settle
# ---------------------------------------------------------------------- #

#: Cycles each counting processor completes before it halts.
LIMIT = 6


class CountingKernel(CompiledProgram):
    """Counts its own cell up to ``LIMIT``.

    ``spawns[pid]`` counts resets; with ``halt_on_restart`` a restarted
    processor halts at once.  ``bombs`` holds ``(pid, count)`` pairs at
    which ``advance`` raises once, before moving on.
    """

    __slots__ = ("pid", "count", "state")

    def __init__(self, pid, state):
        self.pid = pid
        self.count = 0
        self.state = state
        self.live = False

    def reset(self):
        spawns = self.state["spawns"]
        spawns[self.pid] = spawns.get(self.pid, 0) + 1
        self.count = 0
        self.live = not (self.state["halt_on_restart"]
                         and spawns[self.pid] > 1)
        return self.live

    def current_cycle(self):
        return Cycle(reads=(self.pid,),
                     writes=(Write(self.pid, self.count + 1),),
                     label="count")

    def observe(self, cells):
        return (cells[self.pid],), (Write(self.pid, self.count + 1),), 1

    def advance(self, values):
        bomb = (self.pid, self.count)
        if bomb in self.state["bombs"]:
            self.state["bombs"].discard(bomb)
            raise RuntimeError(f"task set raised for pid {self.pid}")
        self.count += 1
        self.live = self.count < LIMIT
        return self.live


def counting_program(state):
    """The generator twin of :class:`CountingKernel`."""
    def program(pid):
        spawns = state["spawns"]
        spawns[pid] = spawns.get(pid, 0) + 1
        if state["halt_on_restart"] and spawns[pid] > 1:
            return
        for count in range(LIMIT):
            yield Cycle(reads=(pid,), writes=(Write(pid, count + 1),),
                        label="count")
            if (pid, count) in state["bombs"]:
                state["bombs"].discard((pid, count))
                raise RuntimeError(f"task set raised for pid {pid}")

    return program


def counting_machine(p, adversary, lane, halt_on_restart=False, bombs=()):
    state = {"spawns": {}, "halt_on_restart": halt_on_restart,
             "bombs": set(bombs)}
    watch = Watch(adversary)
    machine = Machine(num_processors=p, memory=SharedMemory(p),
                      adversary=watch, fast_path=LANES[lane].fast_path)
    watch.machine = machine
    kernel = None
    if LANES[lane].compiled:
        kernel = lambda pid: CountingKernel(pid, state)  # noqa: E731
    machine.load_program(counting_program(state), kernel)
    return machine, state


@pytest.mark.parametrize("lane", CACHE_LANES)
@pytest.mark.parametrize("p", SIZES)
def test_program_that_halts_at_restart(p, lane):
    # Fail pid 0 (and, with more processors, pid p-1), then restart
    # them: they halt as they restart, leaving the failed pids without
    # entering the running list.  One is failed and restarted in the
    # same tick.
    last = p - 1
    adversary = ScheduledAdversary({
        2: ([0], []), 3: ([last], [0, last]) if last else ([], [0]),
    })
    machine, state = counting_machine(p, adversary, lane,
                                      halt_on_restart=True)
    if p == 1:
        # The progress veto spares a lone processor, so fail it between
        # ticks: the progress rule's forced restart then halts it.
        machine.step()
        machine.processors[0].fail()
    drive(machine)
    assert state["spawns"][0] == 2
    assert machine.processors[0].status is ProcessorStatus.HALTED
    assert machine.processors[0].restart_count == 1


@pytest.mark.parametrize("lane", ("fast", "nokernel"))
def test_caches_rebuilt_after_a_raise_mid_settle(lane):
    # At tick 3 pid 1 fails, then pid 2 raises while settle advances it:
    # the tick ends before its caches are updated, so the next step must
    # see pid 1 failed from a full walk.
    adversary = ScheduledAdversary({3: ([1], []), 5: ([], [1])})
    machine, _ = counting_machine(4, adversary, lane, bombs=[(2, 2)])
    machine.step()
    machine.step()
    with pytest.raises(RuntimeError, match="task set raised for pid 2"):
        machine.step()
    assert machine._cache_epoch != machine._status_epoch[0]
    assert [(event.tag, event.pid) for event in machine.ledger.pattern] == \
        [(FailureTag.FAILURE, 1)]
    drive(machine)
    assert machine.processors[1].restart_count == 1
    assert [(event.tag, event.pid, event.time)
            for event in machine.ledger.pattern] == [
        (FailureTag.FAILURE, 1, 3), (FailureTag.RESTART, 1, 5),
    ]


def test_outside_transition_is_followed_by_a_rebuild():
    # A failure made between ticks (not by the tick itself) moves the
    # epoch, and the next step walks the processors again.
    machine, _ = counting_machine(4, ScheduledAdversary({}), "fast")
    machine.step()
    machine.processors[3].fail()
    assert machine._cache_epoch != machine._status_epoch[0]
    machine.step()
    assert_caches_follow(machine)
    assert machine._failed_pids == (3,)


@pytest.mark.parametrize("lane", ("fast", "nokernel"))
def test_transition_made_during_a_tick_forces_a_rebuild(lane):
    # An adversary that restarts pid 1 itself, behind the decision, in
    # the middle of tick 3: the tick must not record its caches as
    # current, so the next step walks the processors again.
    class Meddler(Adversary):
        machine = None

        def decide(self, view):
            if view.time == 2:
                return Decision.fail([1])
            if view.time == 3:
                self.machine.processors[1].restart()
            return Decision.none()

    meddler = Meddler()
    machine, _ = counting_machine(4, meddler, lane)
    meddler.machine = machine
    for _ in range(3):
        machine.step()
    assert machine._cache_epoch != machine._status_epoch[0]
    machine.step()
    assert 1 in [proc.pid for proc in machine._running_cache]
    drive(machine)
