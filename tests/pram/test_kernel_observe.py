"""Kernel-observed adversary ticks: ``CompiledProgram.observe``.

On an adversary-visible fast-path tick, a kernel processor's read values
and write set come from its stepper's ``observe(cells)`` instead of the
machine interpreting the materialized cycle's read specs and write
function.  The base-class ``observe`` *is* that interpretation, so it is
the oracle here: every kernel override must agree with it on any memory
state, must not advance the stepper, and the machine's validation gate
must reject a kernel that disagrees.  Whole-run equality with the
reference lane is the differential suite's job
(``test_fast_path_differential``).
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    TrivialAssignment,
)
from repro.core.algorithm_x import ROUTING_RULES, XKernel
from repro.core.iterative import PhasedKernel
from repro.core.trivial import TrivialKernel
from repro.faults import RandomAdversary
from repro.pram.compiled import CompiledProgram
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import ProgramError
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.policies import Erew


def interpreted(stepper, cells):
    """The contract's oracle: ``current_cycle()`` evaluated on ``cells``."""
    return CompiledProgram.observe(stepper, cells)


def random_x_cells(layout, rng):
    """An arbitrary X memory state: 0/1 flags, positions anywhere."""
    cells = [rng.randint(0, 1) for _ in range(layout.size)]
    n = layout.n
    for pid in range(layout.p):
        cells[layout.w_base + pid] = rng.choice(
            (0, layout.exit_marker, rng.randrange(1, 2 * n))
        )
    return cells


#: Every compiled algorithm configuration; V runs on W's phased kernel
#: without the counting tree, at the default chunk and at chunk 2, and
#: VX round-robins X's kernel and V's.
KERNEL_ALGORITHMS = (
    TrivialAssignment, AlgorithmW, AlgorithmX, AlgorithmV,
    partial(AlgorithmV, chunk=2), AlgorithmVX,
)
PHASED_ALGORITHMS = (AlgorithmW, AlgorithmV, partial(AlgorithmV, chunk=2))


def algorithm_id(factory):
    return factory().name


def faulty_machine(algorithm, n=64, p=8, seed=5):
    """A kernel machine under random fail/restart churn, no windows."""
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    machine = Machine(
        num_processors=p, memory=memory,
        adversary=RandomAdversary(0.1, 0.4, seed=seed),
        fast_forward=False, context={"layout": layout},
    )
    machine.load_program(
        algorithm.program(layout, None),
        compiled_program=algorithm.compiled_program(layout),
    )
    return machine, layout, memory


def random_phased_cells(layout, kernel, rng):
    """An arbitrary V/W memory state around ``kernel``'s step number.

    Progress-tree counts anywhere in range, the step cell on, next to
    or far from the values the guarded join accepts, the done flag
    mostly clear, and counting-tree entries tagged with this, the
    previous or the next iteration.
    """
    cells = [rng.randint(0, 1) for _ in range(layout.size)]
    tree = layout.progress_tree
    for node in range(1, 2 * layout.leaves):
        cells[tree.address(node)] = rng.randint(0, tree.leaves_under(node))
    cells[layout.step_addr] = rng.choice((
        kernel.st - 2, kernel.st - 1, kernel.st, kernel.st - 3,
        rng.randrange(0, 4 * kernel.lam),
    ))
    cells[layout.done_addr] = rng.choice((0, 0, 0, 1))
    if layout.has_counting_tree:
        counting = layout.counting_tree
        mult = kernel.mult
        for node in range(1, 2 * layout.p_leaves):
            tag = kernel.iteration_number + rng.choice((-1, 0, 0, 1))
            cells[counting.address(node)] = (
                max(0, tag) * mult + rng.randrange(0, mult)
            )
    return cells


def kernel_state(kernel):
    return [getattr(kernel, slot) for slot in PhasedKernel.__slots__]


def random_vx_cells(layout, kernel, rng):
    """An arbitrary VX memory state: V's cells around ``kernel``'s V
    step number, with X's positions placed anywhere over them."""
    cells = random_phased_cells(layout.v_layout, kernel.v, rng)
    x_layout = layout.x_layout
    for pid in range(layout.p):
        cells[x_layout.w_base + pid] = rng.choice((
            0, x_layout.exit_marker, rng.randrange(1, 2 * layout.n),
        ))
    return cells


class TestObserveMatchesCycle:
    @pytest.mark.parametrize("routing", ROUTING_RULES)
    @pytest.mark.parametrize("spread", [False, True])
    def test_x_kernel_on_random_states(self, routing, spread):
        algorithm = AlgorithmX(routing=routing, spread=spread)
        layout = algorithm.build_layout(16, 8)
        kernels = [
            algorithm.compiled_program(layout)(pid) for pid in range(8)
        ]
        rng = random.Random(f"{routing}/{spread}")
        for _ in range(200):
            cells = random_x_cells(layout, rng)
            for kernel in kernels:
                assert kernel.reset()
                assert kernel.observe(cells) == interpreted(kernel, cells)
                assert kernel.live  # observe never advances the state

    def test_x_kernel_covers_every_branch(self):
        # Position 0, the exit marker, done nodes, visited and
        # unvisited leaves, and all four interior-node cases.
        algorithm = AlgorithmX()
        layout = algorithm.build_layout(8, 2)
        kernel = algorithm.compiled_program(layout)(1)
        kernel.reset()
        d1 = layout.d_base - 1
        w = layout.w_base + 1
        seen = set()
        for where in (0, layout.exit_marker, 1, 2, 5, 9, 12):
            for done in (0, 1):
                for left in (0, 1):
                    for right in (0, 1):
                        cells = [0] * layout.size
                        cells[w] = where
                        if 1 <= where < layout.exit_marker:
                            cells[d1 + where] = done
                        if 1 <= where < layout.n:
                            cells[d1 + 2 * where] = left
                            cells[d1 + 2 * where + 1] = right
                        elif layout.n <= where < layout.exit_marker:
                            cells[layout.x_base + where - layout.n] = left
                        observed = kernel.observe(cells)
                        assert observed == interpreted(kernel, cells)
                        seen.add(observed[1])
        assert len(seen) >= 8  # distinct write sets actually exercised

    @pytest.mark.parametrize(
        "algorithm", KERNEL_ALGORITHMS, ids=algorithm_id,
    )
    def test_every_kernel_along_a_faulty_run(self, algorithm):
        # Real states, every phase W's and V's state machine reaches:
        # before each tick, each running processor's observe() must
        # equal its cycle evaluated on the same memory.
        machine, _layout, memory = faulty_machine(algorithm())
        cells = memory.raw_cells()
        checked = 0
        for _ in range(150):
            for processor in machine.processors:
                if processor.is_running:
                    stepper = processor._stepper
                    assert stepper.observe(cells) == \
                        interpreted(stepper, cells)
                    checked += 1
            if not machine.step():
                break
        assert checked > 50

    @pytest.mark.parametrize(
        "algorithm", PHASED_ALGORITHMS, ids=algorithm_id,
    )
    def test_phased_kernel_on_random_states(self, algorithm):
        # Every state a faulty run reaches, observed against arbitrary
        # memory: the guarded joins see accepted and rejected step
        # values, allocation sees stale and full subtrees.
        machine, layout, _memory = faulty_machine(algorithm(), seed=9)
        rng = random.Random(algorithm().name)
        phases = set()
        for _ in range(150):
            for processor in machine.processors:
                if not processor.is_running:
                    continue
                kernel = processor._stepper
                phases.add((kernel.phase, kernel.joining))
                before = kernel_state(kernel)
                for _ in range(4):
                    cells = random_phased_cells(layout, kernel, rng)
                    assert kernel.observe(cells) == interpreted(kernel, cells)
                assert kernel_state(kernel) == before
            if not machine.step():
                break
        # Every phase of the configuration (W's ten, V's eight without
        # the two counting phases) plus the guarded join on its head.
        head = machine.processors[0]._stepper.head
        assert {phase for phase, joining in phases if joining} == {head}
        assert len(phases) == (11 if layout.has_counting_tree else 9)


    def test_vx_kernel_on_random_states(self):
        # VX's observe delegates to whichever sub-kernel's turn it is;
        # along a faulty run both take turns, and neither the turn nor
        # V's state may move.
        machine, layout, _memory = faulty_machine(AlgorithmVX(), seed=9)
        rng = random.Random("VX")
        turns = set()
        for _ in range(150):
            for processor in machine.processors:
                if not processor.is_running:
                    continue
                kernel = processor._stepper
                turns.add(kernel.current is kernel.x)
                before = (kernel.current, kernel_state(kernel.v))
                for _ in range(4):
                    cells = random_vx_cells(layout, kernel, rng)
                    assert kernel.observe(cells) == interpreted(kernel, cells)
                assert (kernel.current, kernel_state(kernel.v)) == before
            if not machine.step():
                break
        assert turns == {True, False}


class _Probe(CompiledProgram):
    """A kernel without an observe() override: dependent, skipped and
    charged reads, and a write computed from them."""

    __slots__ = ()

    def current_cycle(self):
        return Cycle(
            reads=(0, lambda got: got[0] or None, None),
            writes=lambda got: (Write(3, got[0] + got[1]),),
            label="probe",
        )


def test_default_observe_evaluates_the_cycle():
    probe = _Probe()
    assert probe.observe([2, 0, 7, 0]) == ((2, 7, 0), (Write(3, 9),), 2)
    assert probe.observe([0, 5, 7, 0]) == ((0, 0, 0), (Write(3, 0),), 1)


class _Lying(XKernel):
    """X kernel whose observe() breaks the contract in one field."""

    __slots__ = ()
    lie = "writes"

    def observe(self, cells):
        values, writes, reads = super().observe(cells)
        if self.lie == "writes":
            return values, (Write(self.w_address, -5),), reads
        return values, writes, reads + 1


def _machine(kernel_factory, p=4):
    algorithm = AlgorithmX()
    layout = algorithm.build_layout(16, p)
    machine = Machine(
        num_processors=p, memory=SharedMemory(layout.size),
        adversary=RandomAdversary(0.2, 0.5, seed=1),
        fast_forward=False, context={"layout": layout},
    )
    machine.load_program(
        algorithm.program(layout, None),
        compiled_program=lambda pid: kernel_factory(pid, layout),
    )
    return machine


class TestValidationGate:
    @pytest.mark.parametrize("lie", ["writes", "reads"])
    def test_disagreeing_kernel_is_rejected(self, lie):
        class Liar(_Lying):
            __slots__ = ()

        Liar.lie = lie
        machine = _machine(
            lambda pid, layout: Liar(pid, layout, "pid", False)
        )
        with pytest.raises(ProgramError, match="observe"):
            machine.step()

    def test_honest_kernel_passes_the_gate(self):
        machine = _machine(
            lambda pid, layout: XKernel(pid, layout, "pid", False)
        )
        for _ in range(20):
            machine.step()
        assert machine.ledger.completed_work > 0


class _NoObserve(TrivialKernel):
    __slots__ = ()

    def observe(self, cells):  # pragma: no cover - must not be called
        raise AssertionError("observe() used without concurrent reads")


def test_exclusive_read_policies_keep_interpreting():
    # EREW needs each read's address for its conflict check, which
    # observe() does not report: the machine must interpret the cycle.
    algorithm = TrivialAssignment()
    layout = algorithm.build_layout(16, 4)
    machine = Machine(
        num_processors=4, memory=SharedMemory(layout.size), policy=Erew(),
        adversary=RandomAdversary(0.2, 0.5, seed=2), fast_forward=False,
    )
    machine.load_program(
        algorithm.program(layout, None),
        compiled_program=lambda pid: _NoObserve(pid, 16, 4, 0),
    )
    for _ in range(10):
        machine.step()
    assert machine.ledger.completed_work > 0
