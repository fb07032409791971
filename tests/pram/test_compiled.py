"""Compiled program kernels: protocol, trust guard, lifecycle edges.

The differential suite (``test_fast_path_differential``) asserts whole
runs are identical with kernels on/off; this file covers the pieces in
isolation — the :class:`~repro.pram.compiled.CompiledProgram` protocol,
the MRO trust guard, the runner's gating, and the processor lifecycle
edges the kernels must reproduce (immediate halt at spawn, restart
rebuilding state from the PID alone).
"""

from __future__ import annotations

import pytest

from repro.core import (
    AlgorithmW,
    AlgorithmX,
    TrivialAssignment,
    solve_write_all,
)
from repro.core.tasks import CycleFactoryTasks
from repro.core.trivial import TrivialKernel
from repro.faults import RandomAdversary
from repro.perf.phases import PhaseCounters
from repro.pram.compiled import (
    CompiledProgram,
    resolve_kernel,
    trusted_compiled_program,
)
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import ProgramError
from repro.pram.processor import Processor, ProcessorStatus


class TestProtocol:
    def test_base_class_methods_are_abstract(self):
        stepper = CompiledProgram()
        with pytest.raises(NotImplementedError):
            stepper.reset()
        with pytest.raises(NotImplementedError):
            stepper.current_cycle()
        with pytest.raises(NotImplementedError):
            stepper.observe([])  # the default evaluates current_cycle()
        with pytest.raises(NotImplementedError):
            stepper.advance(())
        with pytest.raises(NotImplementedError):
            stepper.quiet_step([], [])

    def test_trivial_kernel_matches_generator_stream(self):
        # Drive the kernel and the generator side by side through one
        # full program and compare every materialized cycle.
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 4)
        generator = algorithm.program(layout)(2)
        kernel = algorithm.compiled_program(layout)(2)
        assert kernel.reset()
        cycle = next(generator)
        while True:
            compiled = kernel.current_cycle()
            assert compiled.label == cycle.label
            assert compiled.reads == cycle.reads
            assert list(compiled.materialize_writes(())) == \
                list(cycle.materialize_writes(()))
            kernel_live = kernel.advance(())
            try:
                cycle = generator.send(())
            except StopIteration:
                assert not kernel_live
                break
            assert kernel_live


class TestTrustGuard:
    def test_shipped_algorithms_are_trusted(self):
        for algorithm in (TrivialAssignment(), AlgorithmW(), AlgorithmX()):
            assert trusted_compiled_program(algorithm) is not None

    def test_algorithm_without_own_kernel_is_not_trusted(self):
        # V defines program() but no kernel; honoring the base class's
        # default through its MRO would be meaningless (it returns
        # None) — the guard must stop at the program-defining class.
        from repro.core import AlgorithmV

        assert trusted_compiled_program(AlgorithmV()) is None

    def test_subclass_overriding_program_is_distrusted(self):
        class Patched(TrivialAssignment):
            def program(self, layout, tasks=None):
                return super().program(layout, tasks)

        assert trusted_compiled_program(Patched()) is None
        layout = Patched().build_layout(8, 2)
        assert resolve_kernel(Patched(), layout, None) is None

    def test_subclass_overriding_both_is_trusted(self):
        class Both(TrivialAssignment):
            def program(self, layout, tasks=None):
                return super().program(layout, tasks)

            def compiled_program(self, layout, tasks=None):
                return super().compiled_program(layout, tasks)

        assert trusted_compiled_program(Both()) is not None

    def test_instance_program_assignment_is_distrusted(self):
        algorithm = TrivialAssignment()
        algorithm.program = algorithm.program  # binds into __dict__
        assert trusted_compiled_program(algorithm) is None

    def test_resolve_kernel_escape_hatch(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(8, 2)
        assert resolve_kernel(algorithm, layout, None, compiled=False) is None
        assert resolve_kernel(algorithm, layout, None) is not None

    def test_non_trivial_tasks_fall_back_to_generators(self):
        # Kernels compile the plain x[i] := 1 stream; a task set with
        # real cycles must gate the kernel off (algorithm-level gating).
        tasks = CycleFactoryTasks(1, lambda element, pid: [
            Cycle(writes=(Write(element, 1),), label="task")
        ])
        for algorithm in (TrivialAssignment(), AlgorithmW(), AlgorithmX()):
            layout = algorithm.build_layout(16, 4)
            assert resolve_kernel(algorithm, layout, tasks) is None


class _CountingKernel(CompiledProgram):
    """Test stepper: ``lives`` schedules reset() outcomes per incarnation.

    Real kernels must rebuild identical state from the PID every reset;
    this one deliberately varies by incarnation to exercise the
    processor's handling of a restart that halts immediately.
    """

    __slots__ = ("lives", "incarnation", "steps")

    def __init__(self, lives):
        self.lives = list(lives)
        self.incarnation = -1
        self.steps = 0
        self.live = False

    def reset(self):
        self.incarnation += 1
        self.steps = 0
        self.live = self.lives[self.incarnation]
        return self.live

    def current_cycle(self):
        return Cycle(writes=(Write(0, 1),), label="count")

    def advance(self, values):
        self.steps += 1
        return self.live

    def quiet_step(self, cells, out):
        out.append(0)
        out.append(1)
        self.steps += 1
        return 0


class TestImmediateHalt:
    """Satellite: first-cycle halts, at spawn and after restart."""

    def test_generator_spawn_immediate_halt(self):
        processor = Processor(0, lambda pid: iter(()))
        processor.spawn()
        assert processor.status is ProcessorStatus.HALTED
        with pytest.raises(ProgramError):
            processor.pending_cycle

    def test_kernel_spawn_immediate_halt(self):
        # TrivialKernel with pid >= n is the compiled analogue of the
        # generator's empty range.
        processor = Processor(
            5, lambda pid: iter(()),
            compiled_factory=lambda pid: TrivialKernel(pid, 4, 8, 0),
        )
        processor.spawn()
        assert processor.status is ProcessorStatus.HALTED
        with pytest.raises(ProgramError):
            processor.pending_cycle

    def test_generator_restart_immediate_halt(self):
        # The program yields on its first incarnation and halts
        # immediately on the second: restart() must land in HALTED.
        incarnations = []

        def factory(pid):
            incarnations.append(pid)
            if len(incarnations) == 1:
                def run():
                    while True:
                        yield Cycle(writes=(Write(0, 1),), label="w")
                return run()
            return iter(())

        processor = Processor(0, factory)
        processor.spawn()
        assert processor.is_running
        processor.fail()
        processor.restart()
        assert processor.status is ProcessorStatus.HALTED
        assert processor.restart_count == 1

    def test_kernel_restart_immediate_halt(self):
        processor = Processor(
            0, lambda pid: iter(()),
            compiled_factory=lambda pid: _CountingKernel([True, False]),
        )
        processor.spawn()
        assert processor.is_running
        processor.fail()
        processor.restart()
        assert processor.status is ProcessorStatus.HALTED
        assert processor.restart_count == 1

    def test_kernel_restart_rebuilds_state_from_pid(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 2)
        processor = Processor(
            1, lambda pid: iter(()),
            compiled_factory=algorithm.compiled_program(layout),
        )
        processor.spawn()
        processor.complete_cycle(())
        processor.complete_cycle(())
        assert processor._stepper.element == 1 + 2 * 2
        processor.fail()
        processor.restart()
        assert processor.is_running
        assert processor._stepper.element == 1  # back to the PID

    @pytest.mark.parametrize("compiled", [True, False])
    def test_machine_run_with_immediately_halting_pids(self, compiled):
        # p > n: pids n..p-1 halt at spawn on both protocols; the run
        # must still solve with identical accounting.
        outcomes = [
            solve_write_all(
                TrivialAssignment(), 8, 16,
                adversary=RandomAdversary(0.2, 0.5, seed=11),
                compiled=lane, max_ticks=5_000,
            )
            for lane in (compiled, False)
        ]
        for outcome in outcomes:
            assert outcome.solved
        assert outcomes[0].ledger.completed_work == \
            outcomes[1].ledger.completed_work
        assert list(outcomes[0].ledger.pattern) == \
            list(outcomes[1].ledger.pattern)


class TestKernelLifecycle:
    def test_complete_cycle_counts_and_halts(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(4, 4)
        processor = Processor(
            3, lambda pid: iter(()),
            compiled_factory=algorithm.compiled_program(layout),
        )
        processor.spawn()
        assert processor.pending_cycle.label == "trivial:write"
        processor.complete_cycle(())
        assert processor.cycles_completed == 1
        assert processor.is_halted  # one element per pid at n == p
        with pytest.raises(ProgramError):
            processor.complete_cycle(())

    def test_pending_cycle_is_cached_until_completed(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 2)
        processor = Processor(
            0, lambda pid: iter(()),
            compiled_factory=algorithm.compiled_program(layout),
        )
        processor.spawn()
        first = processor.pending_cycle
        assert processor.pending_cycle is first
        processor.complete_cycle(())
        assert processor.pending_cycle is not first


class TestFusedTickCounter:
    """Satellite: --phases no longer disables event-horizon fusion."""

    def test_fused_ticks_accounts_for_batched_windows(self):
        phases = PhaseCounters()
        result = solve_write_all(
            AlgorithmX(), 64, 16, phase_counters=phases,
        )
        assert phases.fused_ticks > 0
        assert phases.ticks + phases.fused_ticks == result.ledger.ticks

    def test_no_fast_forward_keeps_counter_zero(self):
        phases = PhaseCounters()
        result = solve_write_all(
            AlgorithmX(), 64, 16, phase_counters=phases,
            fast_forward=False,
        )
        assert phases.fused_ticks == 0
        assert phases.ticks == result.ledger.ticks

    def test_describe_mentions_fused_ticks(self):
        counters = PhaseCounters(ticks=2, fused_ticks=40)
        assert "fused_ticks=40" in counters.describe()
        assert "fused_ticks" not in PhaseCounters(ticks=2).describe()
