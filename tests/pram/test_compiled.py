"""Compiled program kernels: protocol, trust guard, lifecycle edges.

The differential suite (``test_fast_path_differential``) asserts whole
runs are identical with kernels on/off; this file covers the pieces in
isolation — the :class:`~repro.pram.compiled.CompiledProgram` protocol,
the MRO trust guard, the runner's gating, and the processor lifecycle
edges the kernels must reproduce (immediate halt at spawn, restart
rebuilding state from the PID alone).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    FaultRouting,
    TrivialAssignment,
    solve_write_all,
)
from repro.core.base import done_predicate
from repro.core.iterative import _ALLOC_ROOT, _WAIT
from repro.core.tasks import CycleFactoryTasks
from repro.core.trivial import TrivialKernel
from repro.faults import RandomAdversary
from repro.faults.base import Adversary, ScheduledAdversary
from repro.perf.phases import PhaseCounters
from repro.pram.compiled import CompiledProgram, resolve_kernel
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import ProgramError
from repro.pram.failures import Decision
from repro.pram.lanes import LANES
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.processor import Processor, ProcessorStatus
from repro.util.hooks import trusted_hook


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


class _JoinTickKiller(Adversary):
    """Kills the running V cohort on the tick a waiter reads a join value.

    Pid 0 is killed at tick 12 and revived at tick 13, so it waits while
    the others run.  A waiter that reads a step value two short of an
    iteration boundary joins the next iteration; killing every
    non-waiting processor on that very tick leaves the step cell
    frozen, so the waiter's guarded join must accept the frozen value
    (``st - 2``).  The victims come back two ticks later and wait, poll
    and join themselves.
    """

    def __init__(self, lam, strikes=3):
        self.lam = lam
        self.strikes = strikes
        self.revive = {13: [0]}

    def decide(self, view):
        revived = Decision.restart(self.revive.pop(view.time, ()))
        if view.time == 12:
            return Decision.fail([0]).merged_with(revived)
        joining = any(
            entry.label == "vw:wait"
            and entry.read_values[0] % self.lam == self.lam - 2
            for entry in view.pending.values()
        )
        cohort = [pid for pid, entry in view.pending.items()
                  if entry.label != "vw:wait"]
        if self.strikes and joining and cohort:
            self.strikes -= 1
            self.revive[view.time + 2] = cohort
            return Decision.fail(cohort).merged_with(revived)
        return revived


def shadow_kernels_along_a_run(algorithm, n, p, adversary):
    """Run the generator program on the reference core beside kernels.

    Before every tick each running processor's pending generator cycle
    must equal its shadow kernel's cycle (label, read specs, and the
    writes materialized from the values memory holds); after the tick
    the shadow advances with the same values, or resets on a restart.
    Returns counts of the guarded-join outcomes and kick-starts seen.
    """
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    algorithm.initialize_memory(memory, layout)
    machine = Machine(
        num_processors=p, memory=memory, adversary=adversary,
        fast_path=False, enforce_progress=False,
        context={"layout": layout},
    )
    machine.load_program(algorithm.program(layout, None))
    factory = algorithm.compiled_program(layout)
    shadows = [factory(pid) for pid in range(p)]
    for kernel in shadows:
        assert kernel.reset()
    goal = done_predicate(layout)
    cells = memory.raw_cells()
    counts = {"join-live": 0, "join-frozen": 0, "resync": 0, "kick": 0}
    for _ in range(2_000):
        before = {}
        for processor in machine.processors:
            if not processor.is_running:
                continue
            cycle = processor.pending_cycle
            kernel = shadows[processor.pid]
            compiled = kernel.current_cycle()
            values, writes, _reads = CompiledProgram.observe(kernel, cells)
            assert compiled.label == cycle.label
            assert compiled.reads == cycle.reads
            assert cycle.materialize_writes(values) == writes
            if cycle.label == "vw:kickstart":
                counts["kick"] += 1
            before[processor.pid] = (
                values, processor.cycles_completed, kernel.phase,
                kernel.joining, kernel.st,
            )
        restarts = [proc.restart_count for proc in machine.processors]
        machine.step()
        for processor in machine.processors:
            kernel = shadows[processor.pid]
            if processor.restart_count != restarts[processor.pid]:
                assert kernel.reset()
                continue
            if processor.pid not in before:
                continue
            values, completed, phase, joining, st = before[processor.pid]
            if processor.cycles_completed == completed:
                continue  # failed this tick: the state is lost
            assert kernel.advance(values) == (not processor.is_halted)
            if phase == _ALLOC_ROOT and joining:
                if kernel.phase == _WAIT:
                    counts["resync"] += 1
                elif values[-1] == st - 2:
                    counts["join-frozen"] += 1
                else:
                    counts["join-live"] += 1
        if goal(machine._reader):
            return counts
    raise AssertionError("the run did not finish")


class TestVKernel:
    """V on W's phased kernel, against V's generator cycle by cycle."""

    @pytest.mark.parametrize(
        "algorithm", [AlgorithmV, partial(AlgorithmV, chunk=2)],
        ids=["V", "V[chunk=2]"],
    )
    def test_kernel_matches_generator_cycle_by_cycle(self, algorithm):
        # Two runs drive every path of V's waiter loop.  (1) The whole
        # machine dies, then pids restart one tick apart: the first
        # waiter kick-starts, the second kick-starts a tick later and
        # then reads the first one's join value one tick late, so its
        # guarded join at the allocation root fails (RESYNC); the late
        # pids join a live cohort.  (2) The cohort dies on the tick a
        # waiter reads the join value, so that join must accept the
        # frozen step cell.
        staggered = ScheduledAdversary({
            10: ([0, 1, 2, 3], []), 12: ([], [0]), 13: ([], [1]),
            20: ([], [2, 3]),
        })
        first = shadow_kernels_along_a_run(algorithm(), 64, 4, staggered)
        assert first["kick"] >= 2
        assert first["resync"] >= 1
        assert first["join-live"] >= 1
        layout = algorithm().build_layout(64, 4)
        lam = algorithm().compiled_program(layout)(0).lam
        killer = _JoinTickKiller(lam)
        second = shadow_kernels_along_a_run(algorithm(), 64, 4, killer)
        assert killer.strikes == 0
        assert second["join-frozen"] >= 1


class _Pending(CompiledProgram):
    """A generator's pending cycle under the contract's oracle.

    The base ``observe`` evaluates the cycle's read specs and writes;
    X's read specs are closures, so a generator cycle and its kernel
    twin's are compared by evaluation, not by identity.
    """

    __slots__ = ("cycle",)

    def __init__(self, cycle):
        self.cycle = cycle

    def current_cycle(self):
        return self.cycle


def shadow_vx_kernels_to_halt(n, p, adversary=None):
    """VX's ``_interleave`` on the reference core, its kernels beside it.

    There is no ``until``: the run ends when every processor has halted
    voluntarily.  Before every tick each running processor's pending
    cycle and its shadow kernel's must carry the same label and
    evaluate to the same reads, writes and charge on the current
    memory; after the tick the shadow advances with the same values, or
    resets on a restart.  Returns which sub-kernel each pid dropped out
    of first, and per restart the labels pending when the processor
    failed and right after it came back.
    """
    algorithm = AlgorithmVX()
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size)
    machine = Machine(
        num_processors=p, memory=memory, adversary=adversary,
        fast_path=False, context={"layout": layout},
    )
    machine.load_program(algorithm.program(layout, None))
    factory = algorithm.compiled_program(layout)
    shadows = [factory(pid) for pid in range(p)]
    for kernel in shadows:
        assert kernel.reset()
    cells = memory.raw_cells()
    first_out = {}
    failed_on = {}
    restarts = []
    for _ in range(5_000):
        before = {}
        for processor in machine.processors:
            if not processor.is_running:
                continue
            cycle = processor.pending_cycle
            kernel = shadows[processor.pid]
            observed = CompiledProgram.observe(kernel, cells)
            assert kernel.current_cycle().label == cycle.label
            assert _Pending(cycle).observe(cells) == observed
            before[processor.pid] = (
                observed[0], processor.cycles_completed, cycle.label,
            )
        counts = [proc.restart_count for proc in machine.processors]
        live = machine.step()
        for processor in machine.processors:
            pid = processor.pid
            kernel = shadows[pid]
            if processor.restart_count != counts[pid]:
                assert kernel.reset()
                restarts.append(
                    (failed_on.pop(pid), processor.pending_cycle.label)
                )
                continue
            if pid not in before:
                continue
            values, completed, label = before[pid]
            if processor.cycles_completed == completed:
                failed_on[pid] = label  # failed this tick
                continue
            assert kernel.advance(values) == (not processor.is_halted)
            if pid not in first_out and not (kernel.x.live and kernel.v.live):
                first_out[pid] = "V" if kernel.x.live else "X"
        if not live:
            assert all(proc.is_halted for proc in machine.processors)
            return first_out, restarts
    raise AssertionError("the run did not halt")


class TestVXKernel:
    """VX's round-robin kernel against ``_interleave``, cycle by cycle."""

    @pytest.mark.parametrize("n,p,first", [
        (16, 4, "V"), (64, 16, "V"), (16, 32, "X"), (64, 64, "X"),
    ])
    def test_kernel_matches_interleave_to_voluntary_halt(self, n, p, first):
        # Both drop-out orders: V's sub-kernel halts first at 16x4 and
        # 64x16, X's at 16x32 and 64x64, on every pid.
        first_out, _restarts = shadow_vx_kernels_to_halt(n, p)
        assert first_out == {pid: first for pid in range(p)}

    def test_restart_mid_round_resumes_on_x(self):
        # Tick 2 is every processor's first V turn: pid 1 fails with
        # V's poll pending, and its restart must begin a fresh round on
        # X's turn, as a fresh _interleave does.
        schedule = ScheduledAdversary({2: ([1], []), 5: ([], [1])})
        _first_out, restarts = shadow_vx_kernels_to_halt(16, 4, schedule)
        assert restarts == [("vw:wait", "x:step")]

    @pytest.mark.parametrize("n,p", [(16, 4), (16, 32)])
    def test_quiet_ticks_run_to_voluntary_halt(self, n, p):
        # The fused kernel tick (quiet_step) through both drop-out
        # orders, with no until: the kernel lane, the generator on the
        # fast path and the reference core halt identically.
        outcomes = []
        for name in ("fast", "nokernel", "reference"):
            lane = LANES[name]
            algorithm = AlgorithmVX()
            layout = algorithm.build_layout(n, p)
            memory = SharedMemory(layout.size)
            machine = Machine(
                num_processors=p, memory=memory,
                fast_path=lane.fast_path, fast_forward=lane.fast_forward,
                context={"layout": layout},
            )
            machine.load_program(
                algorithm.program(layout, None),
                compiled_program=resolve_kernel(
                    algorithm, layout, None, lane.compiled
                ),
            )
            ledger = machine.run(max_ticks=10_000)
            assert ledger.halted and not ledger.goal_reached
            outcomes.append((
                ledger.ticks, dict(ledger.completed_by_pid),
                ledger.completed_per_tick, ledger.memory_reads,
                ledger.memory_writes, memory.snapshot(),
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]


def trusted_compiled_program(algorithm):
    """The kernel hook under the trust rule ``resolve_kernel`` applies."""
    return trusted_hook(algorithm, "compiled_program", "program")


class TestTrustGuard:
    def test_shipped_algorithms_are_trusted(self):
        for algorithm in (TrivialAssignment(), AlgorithmW(), AlgorithmX(),
                          AlgorithmV(), AlgorithmVX()):
            assert trusted_compiled_program(algorithm) is not None

    def test_algorithm_without_own_kernel_is_not_trusted(self):
        # froute defines program() but no kernel; honoring the base
        # class's default through its MRO would be meaningless (it
        # returns None) — the guard must stop at the program-defining
        # class.
        assert trusted_compiled_program(FaultRouting()) is None

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

    @staticmethod
    def task_set():
        return CycleFactoryTasks(1, lambda element, pid: [
            Cycle(writes=(Write(element, 1),), label="task")
        ])

    def test_task_sets_install_kernels_for_x_v_w_and_vx(self):
        # X's, V's, W's and VX's kernels carry task cycles (as a task
        # sub-loop or phase the machine interprets).
        tasks = self.task_set()
        for algorithm in (AlgorithmW(), AlgorithmX(), AlgorithmV(),
                          AlgorithmVX()):
            layout = algorithm.build_layout(16, 4)
            factory = resolve_kernel(algorithm, layout, tasks)
            assert factory is not None
            assert factory(0).reset()

    def test_task_sets_keep_generators_elsewhere(self):
        # The trivial assignment compiles only the plain x[i] := 1
        # stream, and no vector program runs task cycles.
        tasks = self.task_set()
        trivial = TrivialAssignment()
        assert resolve_kernel(
            trivial, trivial.build_layout(16, 4), tasks
        ) is None
        for algorithm in (TrivialAssignment(), AlgorithmW(), AlgorithmX(),
                          AlgorithmV(), AlgorithmVX()):
            layout = algorithm.build_layout(16, 4)
            assert algorithm.vectorized_program(layout, tasks) is None


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
    """Phase counters do not disable event-horizon fusion."""

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
