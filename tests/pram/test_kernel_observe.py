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

import pytest

from repro.core import AlgorithmW, AlgorithmX, TrivialAssignment
from repro.core.algorithm_x import ROUTING_RULES, XKernel
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
        "algorithm", [TrivialAssignment, AlgorithmW, AlgorithmX],
        ids=lambda cls: cls.name,
    )
    def test_every_kernel_along_a_faulty_run(self, algorithm):
        # Real states, every phase W's state machine reaches: before
        # each tick, each running processor's observe() must equal its
        # cycle evaluated on the same memory.
        algorithm = algorithm()
        layout = algorithm.build_layout(64, 8)
        memory = SharedMemory(layout.size)
        machine = Machine(
            num_processors=8, memory=memory,
            adversary=RandomAdversary(0.1, 0.4, seed=5),
            fast_forward=False, context={"layout": layout},
        )
        machine.load_program(
            algorithm.program(layout, None),
            compiled_program=algorithm.compiled_program(layout),
        )
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
