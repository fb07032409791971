"""Differential harness: every machine lane vs the reference semantics.

The machine ships several tick implementations (see the lane registry
in ``repro.pram.lanes``): the reference path is the executable
specification; the fast path, event-horizon batching, compiled kernels,
and the vectorized numpy lane are optimizations over it.  These tests
run the same (algorithm, adversary, policy) configuration through every
available lane and assert the *entire* observable outcome is identical:
ticks, per-PID completed/charged work, the realized failure pattern,
per-tick completions, memory traffic, veto counters, termination flags,
final memory contents — and, through a composed
:class:`~repro.pram.trace.Tracer`, the per-tick execution trace itself.

Besides the registry lanes, every configuration runs on the
``forced-vec`` leg: the ``auto`` lane with a dispatch model that sends
every eligible quiet window to trivial's and W's vector programs
(``tests.conftest.FORCED_VEC``).  Without the optional numpy extra that
leg runs scalar, like ``auto``.
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
    FaultRouting,
    SnapshotAlgorithm,
    TrivialAssignment,
    solve_write_all,
)
from repro.core.runner import default_tick_budget
from repro.core.tasks import CycleFactoryTasks
from repro.faults import (
    FailureBudgetAdversary,
    HalvingAdversary,
    NoFailures,
    NoRestartAdversary,
    RandomAdversary,
    SpeedClassAdversary,
    StalkingAdversaryX,
    StaticFaultAdversary,
    ThrashingAdversary,
    UnionAdversary,
)
from repro.faults.base import QUIET_FOREVER, ScheduledAdversary
from repro.faults.static import apply_memory_faults
from repro.pram.compiled import resolve_kernel
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import (
    MemoryError_,
    PramError,
    ProgramError,
    ReadConflictError,
    WriteConflictError,
)
from repro.pram.lanes import LANES
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.policies import Crew, Erew, RotatingArbitraryCrcw
from repro.pram.trace import Tracer
from repro.pram.vectorized import HAVE_NUMPY, resolve_vectorized
from tests.conftest import FORCED_VEC, lane_dispatch

ALGORITHMS = {
    "W": AlgorithmW,
    "V": AlgorithmV,
    "VX": AlgorithmVX,
    "X": AlgorithmX,
    "snapshot": SnapshotAlgorithm,
    # froute is generator-only, so its cycles and writes are built from
    # the Cycle and Write records on every lane; trivial has a kernel.
    "froute": FaultRouting,
    "trivial": TrivialAssignment,
}

ADVERSARIES = {
    "none": lambda: None,
    "nofailures": NoFailures,
    "random": lambda: RandomAdversary(0.15, 0.3, seed=7),
    "crash": lambda: NoRestartAdversary(RandomAdversary(0.08, seed=3)),
    "thrashing": ThrashingAdversary,
    "halving": HalvingAdversary,
    # Stalls re-observe a deferred cycle; poisoned cells feed observed
    # reads.  Both reach the kernel-observed collection on every lane.
    "speed": lambda: SpeedClassAdversary(seed=1),
    "static-mem": lambda: StaticFaultAdversary(
        dead_frac=0.25, mem_frac=0.25, seed=3
    ),
}


#: The legs every configuration runs through: the lane registry
#: (``repro.pram.lanes``) — fast, noff (no fast-forward), nokernel (no
#: compiled kernels), auto (dispatch chooses) — then the forced-vec
#: leg, and the reference core last.  Algorithms without a kernel or
#: vector program silently run the generator protocol on every leg —
#: the legs still must agree.  Each leg runs in
#: ``lane_dispatch(lane)``.
MODES = (*tuple(LANES.values())[:-1], FORCED_VEC, LANES["reference"])


def run_both(algorithm_key, adversary_factory, n=64, p=16, **kwargs):
    """Run one configuration through every leg, reference last."""
    outcomes = []
    for lane in MODES:
        with lane_dispatch(lane):
            outcomes.append(solve_write_all(
                ALGORITHMS[algorithm_key](), n, p,
                adversary=adversary_factory(),
                **lane.solver_kwargs(),
                **kwargs,
            ))
    return outcomes


def assert_all_identical(outcomes):
    """Every outcome must match the last (reference) one exactly."""
    reference = outcomes[-1]
    for outcome in outcomes[:-1]:
        assert_identical(outcome, reference)


def assert_identical(fast, reference):
    assert_ledgers_identical(fast.ledger, reference.ledger)
    assert fast.solved == reference.solved
    assert fast.memory.snapshot() == reference.memory.snapshot()


def assert_ledgers_identical(fast_ledger, ref_ledger):
    assert fast_ledger.ticks == ref_ledger.ticks
    assert dict(fast_ledger.completed_by_pid) == dict(ref_ledger.completed_by_pid)
    assert dict(fast_ledger.attempted_by_pid) == dict(ref_ledger.attempted_by_pid)
    assert list(fast_ledger.pattern) == list(ref_ledger.pattern)
    assert fast_ledger.completed_per_tick == ref_ledger.completed_per_tick
    assert fast_ledger.memory_reads == ref_ledger.memory_reads
    assert fast_ledger.memory_writes == ref_ledger.memory_writes
    assert fast_ledger.progress_vetoes == ref_ledger.progress_vetoes
    assert fast_ledger.fairness_vetoes == ref_ledger.fairness_vetoes
    flags = ("halted", "goal_reached", "stalled", "tick_limited")
    assert {f: getattr(fast_ledger, f) for f in flags} == \
        {f: getattr(ref_ledger, f) for f in flags}


def assert_outcomes_agree(outcomes):
    """Every lane's outcome equals the reference lane's (the last).

    An outcome is ``("finished", ledger, memory)`` or a ``("raised",
    ...)`` tuple carrying the error, the tick and whatever else must
    match exactly.
    """
    reference = outcomes[-1]
    for outcome in outcomes[:-1]:
        if reference[0] == "raised":
            assert outcome == reference
        else:
            assert outcome[0] == "finished", outcome
            assert_ledgers_identical(outcome[1], reference[1])
            assert outcome[2] == reference[2]


class TestAlgorithmAdversaryMatrix:
    @pytest.mark.parametrize("algorithm_key", sorted(ALGORITHMS))
    @pytest.mark.parametrize("adversary_key", sorted(ADVERSARIES))
    def test_ledger_identical(self, algorithm_key, adversary_key):
        outcomes = run_both(
            algorithm_key, ADVERSARIES[adversary_key],
            max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    @pytest.mark.parametrize("algorithm_key", ["W", "X"])
    def test_with_fairness_window(self, algorithm_key):
        outcomes = run_both(
            algorithm_key, ThrashingAdversary,
            fairness_window=3, max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    def test_x_under_stalking_adversary(self):
        # Theorem 4.8's stalker rules on each pending cycle's write set,
        # which the kernel lanes take from observe().
        outcomes = run_both("X", StalkingAdversaryX, n=32, p=32,
                            max_ticks=20_000)
        assert outcomes[0].ledger.pattern_size > 0
        assert_all_identical(outcomes)

    def test_kernel_under_exclusive_reads(self):
        # Under EREW a kernel processor's pending cycle is interpreted
        # and cached on the processor rather than observed; settling it
        # must drop that cycle, or the next tick re-runs a finished one.
        outcomes = run_both(
            "trivial", lambda: RandomAdversary(0.15, 0.3, seed=7),
            policy=Erew(), max_ticks=5_000,
        )
        assert outcomes[0].ledger.pattern_size > 0
        assert_all_identical(outcomes)

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_processor_counts_match_the_ledger(self, fast_path):
        # Each tick body keeps Processor.cycles_completed itself (the
        # fast tick completes kernel cycles in place).
        algorithm = AlgorithmX()
        layout = algorithm.build_layout(64, 16)
        memory = SharedMemory(layout.size)
        algorithm.initialize_memory(memory, layout)
        machine = Machine(
            num_processors=16, memory=memory, fast_path=fast_path,
            adversary=RandomAdversary(0.15, 0.3, seed=7),
            context={"layout": layout},
        )
        machine.load_program(
            algorithm.program(layout, None),
            compiled_program=resolve_kernel(algorithm, layout, None),
        )
        ledger = machine.run(
            until=algorithm.until_predicate(layout), max_ticks=5_000
        )
        assert ledger.pattern_size > 0
        assert [proc.cycles_completed for proc in machine.processors] == [
            ledger.completed_by_pid[pid] for pid in range(16)
        ]

    def test_v_under_thrashing_hits_tick_limit_identically(self):
        # V need not terminate under restarts; all cores must agree on
        # the truncated run too.
        outcomes = run_both("V", ThrashingAdversary, max_ticks=200)
        assert_all_identical(outcomes)

    def test_rotating_arbitrary_policy(self):
        # RotatingArbitraryCrcw declares singleton_resolve_is_identity
        # False, forcing the fast path through the general resolve route
        # every tick; the rotation counters must stay in lock step.
        outcomes = run_both(
            "X", lambda: RandomAdversary(0.1, 0.4, seed=11),
            policy=RotatingArbitraryCrcw(), max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    def test_heavy_crash_exercises_progress_vetoes(self):
        # A raw high crash rate with no restarts (NoRestartAdversary
        # would spare the last runner itself) forces the *machine* to
        # veto the adversary to preserve the progress condition.
        outcomes = run_both(
            "X", lambda: RandomAdversary(0.7, 0.0, seed=5),
            n=32, p=8, max_ticks=5_000,
        )
        assert outcomes[0].ledger.progress_vetoes > 0
        assert_all_identical(outcomes)

    def test_all_failed_forced_restart_in_passive_path(self):
        # With a passive adversary the only way every processor can be
        # down is harness intervention; the fast tick must then
        # reproduce the reference order exactly: an empty tick (zero
        # completions) plus a forced restart of the lowest failed PID,
        # recorded in the pattern and counted as a progress veto.
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        ledgers = []
        for fast in (True, False):
            algorithm = AlgorithmX()
            layout = algorithm.build_layout(16, 4)
            memory = SharedMemory(layout.size)
            machine = Machine(num_processors=4, memory=memory,
                              fast_path=fast, context={"layout": layout})
            machine.load_program(algorithm.program(layout, None))
            machine.step()
            for processor in machine.processors:
                processor.fail()
            machine.step()  # empty tick: forced restart of PID 0
            machine.step()  # only PID 0 runs
            ledger = machine.ledger
            assert ledger.completed_per_tick[-2] == 0
            assert ledger.completed_per_tick[-1] == 1
            assert ledger.progress_vetoes == 1
            ledgers.append(ledger)
        fast_ledger, ref_ledger = ledgers
        assert list(fast_ledger.pattern) == list(ref_ledger.pattern)
        assert dict(fast_ledger.completed_by_pid) == \
            dict(ref_ledger.completed_by_pid)


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector programs need numpy")
class TestForcedVectorLeg:
    """The forced-vec leg runs the vector programs where the calibrated
    model alone would not."""

    @pytest.mark.parametrize("lane, expected", [
        (FORCED_VEC, {"TrivialVector", "WVector"}),
        # At 64x16 dispatch already sends trivial's windows to its
        # vector program, but keeps W's scalar.
        (LANES["auto"], {"TrivialVector"}),
    ], ids=["forced-vec", "auto"])
    def test_vector_programs_that_run(self, monkeypatch, lane, expected):
        from repro.core.vector_kernels import TrivialVector, WVector

        calls = []
        for cls in (TrivialVector, WVector):
            original = cls.run_quiet

            def counting(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "run_quiet", counting)
        for algorithm_key in ("trivial", "W"):
            with lane_dispatch(lane):
                solve_write_all(ALGORITHMS[algorithm_key](), 64, 16,
                                **lane.solver_kwargs())
        assert set(calls) == expected


class TestRandomSchedules:
    """Seeded-random offline schedules (the property-test satellite)."""

    @staticmethod
    def random_schedule(seed, p, horizon=80):
        rng = random.Random(seed)
        schedule = {}
        for tick in range(1, horizon):
            if rng.random() < 0.35:
                fails = rng.sample(range(p), rng.randint(1, max(1, p // 2)))
                restarts = rng.sample(range(p), rng.randint(0, p // 2))
                schedule[tick] = (fails, restarts)
        return schedule

    # VX raises WriteConflictError under some of these schedules (its
    # interleave breaks COMMON under churn); TestVXChurnLaneAgreement
    # runs the same schedules on it and checks the lanes agree.
    @pytest.mark.parametrize("algorithm_key", sorted(set(ALGORITHMS) - {"VX"}))
    @pytest.mark.parametrize("seed", range(6))
    def test_scheduled_runs_identical(self, algorithm_key, seed):
        schedule = self.random_schedule(seed * 101 + 17, p=8)
        outcomes = run_both(
            algorithm_key,
            lambda: ScheduledAdversary(schedule),
            n=32, p=8, max_ticks=5_000,
        )
        assert_all_identical(outcomes)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_online_adversary_identical(self, seed):
        outcomes = run_both(
            "X",
            lambda: RandomAdversary(0.2, 0.35, seed=seed),
            n=64, p=16, max_ticks=5_000,
        )
        assert_all_identical(outcomes)


class TestTraceIdentity:
    @pytest.mark.parametrize("algorithm_key", ["X", "V", "VX"])
    def test_tick_by_tick_trace_identical(self, algorithm_key):
        # The Tracer records, per tick, the status partition, the
        # pending-cycle labels, and watched cell values — through the
        # same TickView the machine hands real adversaries.  Composing
        # it over a random adversary checks the fast path presents the
        # identical per-tick world, not just identical totals.  V's
        # and VX's watch lists add V's step and done cells.
        algorithm = ALGORITHMS[algorithm_key]
        layout = algorithm().build_layout(64, 16)
        watch = (0, 1, 2, 3)
        v_layout = getattr(layout, "v_layout", layout)
        if algorithm_key != "X":
            watch += (v_layout.step_addr, v_layout.done_addr)
        traces = []
        for lane in MODES:
            tracer = Tracer(watch=watch)
            adversary = UnionAdversary([
                tracer, RandomAdversary(0.15, 0.3, seed=13),
            ])
            with lane_dispatch(lane):
                solve_write_all(
                    algorithm(), 64, 16, adversary=adversary,
                    max_ticks=5_000, **lane.solver_kwargs(),
                )
            traces.append(tracer.records)
        reference_trace = traces[-1]
        for trace in traces[:-1]:
            assert len(trace) == len(reference_trace)
            for tick_record, reference_tick in zip(trace, reference_trace):
                assert tick_record == reference_tick


class TestVXChurnLaneAgreement:
    """VX's COMMON violation under churn, pinned as lane agreement.

    Under churn VX can write two different values into V's step cell in
    one tick, which COMMON CRCW rejects (see ``repro.core.algorithm_vx``).
    These tests check agreement, not correctness: on every lane a run
    either finishes with identical ledgers and memory, or raises the
    same ``WriteConflictError`` on the same tick.  A fix of the
    interleave keeps them passing only if it changes the generator and
    its kernel twin together.
    """

    @staticmethod
    def outcome(lane, n, p, adversary):
        algorithm = AlgorithmVX()
        layout = algorithm.build_layout(n, p)
        memory = SharedMemory(layout.size)
        machine = Machine(
            num_processors=p, memory=memory, adversary=adversary,
            fast_path=lane.fast_path, fast_forward=lane.fast_forward,
            context={"layout": layout},
        )
        machine.load_program(
            algorithm.program(layout, None),
            compiled_program=resolve_kernel(
                algorithm, layout, None, lane.compiled
            ),
            vectorized_program=resolve_vectorized(
                algorithm, layout, None, lane.vectorized
            ),
        )
        try:
            with lane_dispatch(lane):
                ledger = machine.run(
                    until=algorithm.until_predicate(layout),
                    max_ticks=default_tick_budget(n, p),
                )
        except WriteConflictError as error:
            return "raised", str(error), machine.ledger.ticks
        return "finished", ledger, memory.snapshot()

    def assert_lanes_agree(self, n, p, adversary_factory):
        assert_outcomes_agree([
            self.outcome(lane, n, p, adversary_factory()) for lane in MODES
        ])

    @pytest.mark.parametrize("n,p", [(64, 4), (128, 8)])
    def test_every_lane_agrees_under_budgeted_churn(self, n, p):
        # A slice of the probe grid in algorithm_vx's docstring.
        for seed in range(10):
            self.assert_lanes_agree(n, p, lambda: FailureBudgetAdversary(
                RandomAdversary(0.05, 0.4, seed=seed), n
            ))

    @pytest.mark.parametrize("seed", range(6))
    def test_every_lane_agrees_on_random_schedules(self, seed):
        schedule = TestRandomSchedules.random_schedule(seed * 101 + 17, p=8)
        self.assert_lanes_agree(32, 8, lambda: ScheduledAdversary(schedule))


class TestEventHorizonEdges:
    """Boundary cases of the event-horizon fast-forward windows."""

    def test_scheduled_restart_exactly_on_horizon_tick(self):
        # After the tick-3 failure the schedule's bisect horizon is
        # tick 40: the quiet window must stop one tick short so the
        # restart lands through a real consult, not inside the batch.
        schedule = {3: ([1], []), 40: ([], [1])}
        outcomes = run_both(
            "X", lambda: ScheduledAdversary(schedule),
            n=32, p=8, max_ticks=5_000,
        )
        assert outcomes[0].ledger.pattern_size == 2
        assert_all_identical(outcomes)

    def test_last_event_precedes_termination(self):
        # Once the schedule is exhausted quiet_until is QUIET_FOREVER
        # and the machine fast-forwards straight to termination; the
        # ledger must still match per-tick execution exactly.
        schedule = {2: ([0], []), 4: ([], [0])}
        outcomes = run_both(
            "X", lambda: ScheduledAdversary(schedule),
            n=64, p=16, max_ticks=5_000,
        )
        assert outcomes[0].solved
        assert outcomes[0].ledger.pattern_size == 2
        assert_all_identical(outcomes)

    def test_tick_limit_hit_inside_quiet_window(self):
        # The window must clip at max_ticks even when the horizon is
        # infinite (schedule exhausted, victim never restarted).
        schedule = {5: ([2], [])}
        outcomes = run_both(
            "X", lambda: ScheduledAdversary(schedule),
            n=64, p=4, max_ticks=50,
        )
        for outcome in outcomes:
            assert not outcome.solved
            assert outcome.ledger.tick_limited
            assert outcome.ledger.ticks == 50
        assert_all_identical(outcomes)

    def test_until_goal_breaks_quiet_window(self):
        # With a passive adversary the whole run is one quiet window;
        # the until() predicate must still end it at the exact tick the
        # per-tick loop would.  trivial and W stop inside a vector
        # window on the forced-vec leg.
        from repro.core.base import done_predicate

        for algorithm_cls in (AlgorithmX, AlgorithmW, TrivialAssignment):
            ticks = []
            for lane in MODES:
                algorithm = algorithm_cls()
                layout = algorithm.build_layout(32, 8)
                memory = SharedMemory(layout.size)
                machine = Machine(num_processors=8, memory=memory,
                                  adversary=NoFailures(),
                                  fast_path=lane.fast_path,
                                  fast_forward=lane.fast_forward,
                                  context={"layout": layout})
                machine.load_program(
                    algorithm.program(layout, None),
                    compiled_program=resolve_kernel(
                        algorithm, layout, None, lane.compiled
                    ),
                    vectorized_program=resolve_vectorized(
                        algorithm, layout, None, lane.vectorized
                    ),
                )
                with lane_dispatch(lane):
                    ledger = machine.run(until=done_predicate(layout),
                                         max_ticks=100_000)
                assert ledger.goal_reached
                assert not ledger.tick_limited
                ticks.append(ledger.ticks)
            assert len(set(ticks)) == 1, algorithm_cls.__name__

    def test_tracer_composition_pins_horizon_to_every_tick(self):
        # A composed Tracer must see every tick even when the other
        # union member promises a huge quiet window.
        schedule = {3: ([1], []), 200: ([], [1])}
        tracer = Tracer()
        adversary = UnionAdversary([
            tracer, ScheduledAdversary(schedule),
        ])
        result = solve_write_all(
            AlgorithmX(), 32, 8, adversary=adversary,
            fast_path=True, fast_forward=True, max_ticks=5_000,
        )
        assert len(tracer.records) == result.ledger.ticks


class TestPassivityDetection:
    def test_subclass_overriding_decide_is_consulted(self):
        # NoFailures' `quiet_until -> QUIET_FOREVER` must not be trusted
        # through inheritance: a subclass that overrides decide() (here,
        # to actually kill a processor) has to be consulted every tick.
        from repro.pram.failures import BEFORE_WRITES, Decision

        class Killer(NoFailures):
            def decide(self, view):
                if view.time == 2 and 0 in view.pending:
                    return Decision.fail([0], BEFORE_WRITES)
                return Decision.none()

        result = solve_write_all(
            AlgorithmX(), 16, 4, adversary=Killer(), fast_path=True,
        )
        assert result.ledger.pattern_size == 1

    def test_quiet_until_declared_with_decide_is_honored(self):
        class Quiet(NoFailures):
            def decide(self, view):  # pragma: no cover - must be skipped
                raise AssertionError("quiet adversary was consulted")

            def quiet_until(self, tick):
                return QUIET_FOREVER

        result = solve_write_all(
            AlgorithmX(), 16, 4, adversary=Quiet(), fast_path=True,
        )
        assert result.solved

    def test_direct_processor_failure_invalidates_status_cache(self):
        # Tests (and harnesses) may fail processors behind the
        # machine's back; the status-epoch cell must invalidate the
        # fast path's cached running list.
        from repro.core.base import done_predicate
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory

        algorithm = AlgorithmX()
        layout = algorithm.build_layout(16, 4)
        memory = SharedMemory(layout.size)
        machine = Machine(num_processors=4, memory=memory,
                          context={"layout": layout})
        machine.load_program(algorithm.program(layout, None))
        machine.step()
        machine.processors[2].fail()
        machine.step()
        assert machine.ledger.completed_per_tick[-1] == 3
        machine.processors[2].restart()
        ledger = machine.run(until=done_predicate(layout), max_ticks=2_000)
        assert ledger.goal_reached


# ---------------------------------------------------------------------- #
# Policies and memories outside the kernel quiet tick's preconditions
# ---------------------------------------------------------------------- #

#: Cell layout of the configuration programs below: per-PID counters in
#: ``0..CONFIG_P-1``, per-PID doubles in ``CONFIG_P..2*CONFIG_P-1``, and
#: one shared cell.
CONFIG_P = 4
SHARED_CELL = 2 * CONFIG_P
COUNT_TO = 10
#: The counter value at which the conflict programs touch the shared cell.
HOT = 5


def config_program(kind):
    """A memory-driven counting program, one of four kinds.

    Each PID counts its own cell up to ``COUNT_TO`` (a restarted PID
    resumes from memory) and halts; every cycle also reads and writes
    its own double cell.  ``clean`` is conflict-free under every policy.
    ``erew-read`` reads the shared cell when its counter is ``HOT``,
    ``crew-write`` writes its PID there then, and ``crew-agree`` has
    the even PIDs write the same value there then (a conflict under
    CREW although the writers agree).
    """
    def second_read(pid):
        if kind == "erew-read":
            return lambda values: SHARED_CELL if values[0] == HOT else CONFIG_P + pid
        # A dependent read that skips (charging nothing) on odd counts.
        return lambda values: None if values[0] % 2 else CONFIG_P + pid

    def writes(pid):
        def compute(values):
            count = values[0] + 1
            if kind == "crew-write" and values[0] == HOT:
                return (Write(pid, count), Write(SHARED_CELL, pid))
            if kind == "crew-agree" and values[0] == HOT and pid % 2 == 0:
                return (Write(pid, count), Write(SHARED_CELL, HOT))
            return (Write(pid, count), Write(CONFIG_P + pid, 2 * count))

        return compute

    def program(pid):
        cycle = Cycle(reads=(pid, second_read(pid)), writes=writes(pid),
                      label=f"count:{kind}")
        while True:
            values = yield cycle
            if values[0] + 1 >= COUNT_TO:
                return

    return program


CONFIG_POLICIES = {
    "EREW": Erew,
    "CREW": Crew,
}

CONFIG_ADVERSARIES = {
    "passive": NoFailures,
    # Fail pid 1 at tick 2 and restart it at tick 4, and fail and
    # restart pid 2 at tick 7: the halts then land on different ticks,
    # and the ticks between the events run in quiet windows.
    "scheduled": lambda: ScheduledAdversary(
        {2: ([1], []), 4: ([], [1]), 7: ([2], [2])}
    ),
}

#: The lanes that differ in how they tick (no kernel or vector program
#: exists for these generator programs), reference last.
CONFIG_LANES = tuple(LANES[name] for name in ("fast", "noff", "reference"))


def run_config(kind, policy_key, adversary_key, lane):
    """Run one configuration program on ``lane``.

    Returns ``(ledger, memory contents, error or None)``.
    """
    memory = SharedMemory(SHARED_CELL + 1)
    machine = Machine(
        num_processors=CONFIG_P, memory=memory,
        policy=CONFIG_POLICIES[policy_key](),
        adversary=CONFIG_ADVERSARIES[adversary_key](),
        fast_path=lane.fast_path, fast_forward=lane.fast_forward,
    )
    machine.load_program(config_program(kind))
    error = None
    try:
        machine.run(max_ticks=1_000)
    except PramError as exc:
        error = exc
    return machine.ledger, memory.snapshot(), error


class TestPolicyAndMemoryConfigurations:
    """EREW reads and CREW writes on every tick body.

    Inside a quiet window these configurations take the generic quiet
    tick (collect, resolve, advance); outside one the observable fast
    tick; the reference lane is the oracle.
    """

    @pytest.mark.parametrize("adversary_key", sorted(CONFIG_ADVERSARIES))
    @pytest.mark.parametrize("policy_key", sorted(CONFIG_POLICIES))
    def test_conflict_free_program_identical(self, policy_key, adversary_key):
        runs = [
            run_config("clean", policy_key, adversary_key, lane)
            for lane in CONFIG_LANES
        ]
        ref_ledger, ref_memory, ref_error = runs[-1]
        assert ref_error is None and ref_ledger.halted
        assert ref_memory[:CONFIG_P] == [COUNT_TO] * CONFIG_P
        for ledger, memory, error in runs[:-1]:
            assert error is None
            assert_ledgers_identical(ledger, ref_ledger)
            assert memory == ref_memory

    @pytest.mark.parametrize("adversary_key", sorted(CONFIG_ADVERSARIES))
    @pytest.mark.parametrize("kind, policy_key, error_type", [
        ("erew-read", "EREW", ReadConflictError),
        ("crew-write", "CREW", WriteConflictError),
        ("crew-agree", "CREW", WriteConflictError),
    ])
    def test_error_at_same_tick_with_same_partial_memory(
        self, kind, policy_key, error_type, adversary_key
    ):
        runs = [
            run_config(kind, policy_key, adversary_key, lane)
            for lane in CONFIG_LANES
        ]
        ref_ledger, ref_memory, ref_error = runs[-1]
        assert type(ref_error) is error_type
        for ledger, memory, error in runs[:-1]:
            assert type(error) is error_type
            assert str(error) == str(ref_error)
            assert ledger.ticks == ref_ledger.ticks
            assert memory == ref_memory


# ---------------------------------------------------------------------- #
# Task cycles: the Theorem 4.1 simulator's Write-All phases
# ---------------------------------------------------------------------- #

#: Algorithms whose kernels carry non-trivial task sets; the kernel
#: lanes run their task cycles through the machine's interpretation, the
#: ``nokernel`` and ``reference`` lanes through the generators.
TASK_ALGORITHMS = {
    "X": AlgorithmX,
    "V": AlgorithmV,
    "V[chunk=2]": partial(AlgorithmV, chunk=2),
    "W": AlgorithmW,
    "VX": AlgorithmVX,
}


def sum_tasks(base, n, k):
    """``k`` cycles per task over two scratch regions past the layout.

    Task ``e`` reads its input ``IN[e]`` (a static read) and, unless
    ``e % 3 == 0`` (a chained read spec that returns None), the input
    that value points at, and writes their sum into ``OUT[e]``; with
    ``k == 2`` a write-free cycle reads ``IN[e]`` first.  Every
    execution writes the same value, so re-runs and concurrent runs are
    idempotent, as a simulator phase's are.
    """
    inputs, outputs = base, base + n

    def factory(element, pid):
        def chained(got):
            return None if element % 3 == 0 else inputs + got[0] % n

        add = Cycle(
            reads=(inputs + element, chained),
            writes=lambda got: (Write(outputs + element, got[0] + got[1]),),
            label="task:add",
        )
        if k == 1:
            return [add]
        return [Cycle(reads=(inputs + element,), label="task:peek"), add]

    return CycleFactoryTasks(k, factory)


def task_inputs(n):
    return [(7 * element + 3) % n for element in range(n)]


def run_tasks(algorithm_key, adversary, lane, tasks=None, k=1, n=64, p=16,
              max_ticks=5_000):
    """Run one algorithm over a task set on ``lane``.

    ``tasks`` builds the task set from ``(base, n)`` (default: the
    ``k``-cycle :func:`sum_tasks`).  Returns ``("finished", ledger,
    memory)`` or, if the run raised, ``("raised", type, message, tick,
    memory)``: VX's known COMMON violation under churn raises on every
    lane alike, and so do misbehaving task sets.
    """
    algorithm = TASK_ALGORITHMS[algorithm_key]()
    layout = algorithm.build_layout(n, p)
    memory = SharedMemory(layout.size + 2 * n)
    algorithm.initialize_memory(memory, layout)
    memory.load(task_inputs(n), layout.size)
    apply_memory_faults(memory, adversary, layout)
    if tasks is None:
        task_set = sum_tasks(layout.size, n, k)
    else:
        task_set = tasks(layout.size, n)
    machine = Machine(
        num_processors=p, memory=memory, adversary=adversary,
        fast_path=lane.fast_path, fast_forward=lane.fast_forward,
        context={"layout": layout},
    )
    machine.load_program(
        algorithm.program(layout, task_set),
        compiled_program=resolve_kernel(
            algorithm, layout, task_set, lane.compiled
        ),
        vectorized_program=resolve_vectorized(
            algorithm, layout, task_set, lane.vectorized
        ),
    )
    try:
        with lane_dispatch(lane):
            ledger = machine.run(
                until=algorithm.until_predicate(layout), max_ticks=max_ticks,
                raise_on_limit=False,
            )
    except Exception as error:
        return ("raised", type(error), str(error), machine.ledger.ticks,
                memory.snapshot())
    return "finished", ledger, memory.snapshot()


class TestTaskCycles:
    """Task sets on every lane: kernels interpret them, generators yield
    them, and the outcome must not tell the two apart."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("adversary_key", sorted(ADVERSARIES))
    @pytest.mark.parametrize("algorithm_key", sorted(TASK_ALGORITHMS))
    def test_ledger_identical(self, algorithm_key, adversary_key, k):
        outcomes = [
            run_tasks(algorithm_key, ADVERSARIES[adversary_key](), lane, k=k)
            for lane in MODES
        ]
        assert_outcomes_agree(outcomes)

    @pytest.mark.parametrize("algorithm_key", sorted(TASK_ALGORITHMS))
    def test_tasks_compute_their_outputs(self, algorithm_key):
        n = 64
        inputs = task_inputs(n)
        expected = [
            inputs[e] + (0 if e % 3 == 0 else inputs[inputs[e] % n])
            for e in range(n)
        ]
        for lane in MODES:
            outcome = run_tasks(algorithm_key, None, lane, k=2, n=n)
            assert outcome[0] == "finished" and outcome[1].goal_reached
            assert outcome[2][-n:] == expected

    @pytest.mark.parametrize("algorithm_key", ["X", "V"])
    def test_tick_by_tick_trace_identical(self, algorithm_key):
        n, p = 64, 16
        layout = TASK_ALGORITHMS[algorithm_key]().build_layout(n, p)
        watch = (0, 1, 2, 3) + tuple(
            layout.size + n + e for e in range(4)
        )
        if algorithm_key == "V":
            watch += (layout.step_addr, layout.done_addr)
        traces = []
        for lane in MODES:
            tracer = Tracer(watch=watch)
            adversary = UnionAdversary([
                tracer, RandomAdversary(0.15, 0.3, seed=13),
            ])
            run_tasks(algorithm_key, adversary, lane, k=2, n=n, p=p)
            traces.append(tracer.records)
        assert any(
            label.startswith("task:")
            for record in traces[-1] for label in record.labels.values()
        )
        for trace in traces[:-1]:
            assert trace == traces[-1]


VICTIM = 3

#: Processors per mid-task run: at 64 x 4, V needs more than one
#: iteration, so a restarted processor has one to re-join.
MID_TASK_P = {"X": 16, "V": 4}


def mid_task_schedule(algorithm_key, down=4):
    """Fail ``VICTIM`` inside its first task (its ``task:peek`` cycle
    done, ``task:add`` pending) and restart it ``down`` ticks later.

    The tick comes from a failure-free probe run on the reference lane.
    """
    tracer = Tracer()
    run_tasks(algorithm_key, tracer, LANES["reference"], k=2,
              p=MID_TASK_P[algorithm_key])
    tick = next(
        tick for tick, label in tracer.labels_of(VICTIM)
        if label == "task:add"
    )
    return tick, {tick: ([VICTIM], []), tick + down: ([], [VICTIM])}


class TestFailureInsideATask:
    """A processor failed between a task's cycles loses the task (its
    private state) and must redo it after the restart, on every lane."""

    @pytest.mark.parametrize("algorithm_key", ["X", "V"])
    def test_every_lane_identical(self, algorithm_key):
        _tick, schedule = mid_task_schedule(algorithm_key)
        outcomes = [
            run_tasks(algorithm_key, ScheduledAdversary(schedule), lane, k=2,
                      p=MID_TASK_P[algorithm_key])
            for lane in MODES
        ]
        assert outcomes[-1][0] == "finished"
        assert outcomes[-1][1].goal_reached
        assert outcomes[-1][1].pattern_size == 2
        assert_outcomes_agree(outcomes)

    def traced(self, algorithm_key, watch=()):
        tick, schedule = mid_task_schedule(algorithm_key)
        traces = []
        for lane in MODES:
            tracer = Tracer(watch=watch)
            adversary = UnionAdversary([tracer, ScheduledAdversary(schedule)])
            run_tasks(algorithm_key, adversary, lane, k=2,
                      p=MID_TASK_P[algorithm_key])
            traces.append(tracer)
        for tracer in traces[:-1]:
            assert tracer.records == traces[-1].records
        return tick, traces[-1]

    def test_x_resumes_at_its_leaf_and_reruns_the_task(self):
        layout = AlgorithmX().build_layout(64, 16)
        w_victim = layout.w_base + VICTIM
        tick, tracer = self.traced("X", watch=(w_victim,))
        leaf = dict(tracer.watched_series(w_victim))[tick]
        assert layout.n <= leaf < 2 * layout.n
        after = [
            label for at, label in tracer.labels_of(VICTIM) if at > tick
        ]
        # Back on its leaf from w[pid]: the update cycle finds x still 0,
        # and the whole task runs again before the leaf is marked.
        assert after[:4] == ["x:step", "task:peek", "task:add", "x:mark"]
        assert dict(tracer.watched_series(w_victim))[tick + 5] == leaf

    def test_v_rejoins_an_iteration(self):
        tick, tracer = self.traced("V")
        after = [
            label for at, label in tracer.labels_of(VICTIM) if at > tick
        ]
        assert after[0] == "vw:wait"
        assert "vw:alloc-root" in after
        joined = after.index("vw:alloc-root")
        assert "task:peek" in after[joined:]


def _tasks(make_cycles, k=1):
    """A task-set builder for :func:`run_tasks` from ``make_cycles(base,
    n, element, pid)``."""
    def build(base, n):
        return CycleFactoryTasks(
            k, lambda element, pid: make_cycles(base, n, element, pid)
        )
    return build


def _cycles_with_writes(count):
    def make(base, n, element, pid):
        writes = tuple(
            Write(base + n + (element + i) % n, 1) for i in range(count)
        )
        return [Cycle(reads=(base + element,), writes=writes,
                      label="task:writes")]
    return make


#: Task sets that break the task contract, and the error every lane must
#: raise for them (the reference lane runs the generator).
MISBEHAVING_TASKS = {
    "five-reads": (_tasks(lambda base, n, element, pid: [Cycle(
        reads=(base,) * 5, label="task:wide",
    )]), ProgramError),
    "too-many-writes": (None, ProgramError),  # built per algorithm
    "address-out-of-range": (_tasks(lambda base, n, element, pid: [Cycle(
        reads=(base + element,
               lambda got: 10_000 if element == 5 else None),
        label="task:far",
    )]), MemoryError_),
    "conflicting-writes": (_tasks(lambda base, n, element, pid: [Cycle(
        writes=(Write(base + n, pid),), label="task:clash",
    )]), WriteConflictError),
    "wrong-count": (_tasks(
        lambda base, n, element, pid: [Cycle(label="task:one")], k=2,
    ), ValueError),
    "not-a-cycle-first": (_tasks(
        lambda base, n, element, pid: ["x", Cycle(label="task:ok")], k=2,
    ), ProgramError),
    "not-a-cycle-second": (_tasks(
        lambda base, n, element, pid: [Cycle(label="task:ok"), "x"], k=2,
    ), ProgramError),
}

MISBEHAVIOUR_ADVERSARIES = {
    "passive": lambda: None,
    "scheduled": lambda: ScheduledAdversary(
        {2: ([1], []), 4: ([], [1]), 7: ([2], [2])}
    ),
    "random": lambda: RandomAdversary(0.15, 0.3, seed=7),
}


class TestMisbehavingTasks:
    """A task set that breaks its contract fails the same way on every
    lane: same exception and message, on the same tick, over the same
    partially-applied memory."""

    @pytest.mark.parametrize("adversary_key", sorted(MISBEHAVIOUR_ADVERSARIES))
    @pytest.mark.parametrize("case", sorted(MISBEHAVING_TASKS))
    @pytest.mark.parametrize("algorithm_key", ["X", "V", "W", "VX"])
    def test_same_error_same_tick_same_memory(
        self, algorithm_key, case, adversary_key
    ):
        tasks, error_type = MISBEHAVING_TASKS[case]
        if case == "too-many-writes":
            # Over X's two-write budget; over the one own write V and W
            # leave a task beside their step write.
            count = 3 if algorithm_key == "X" else 2
            tasks = _tasks(_cycles_with_writes(count))
        outcomes = [
            run_tasks(
                algorithm_key, MISBEHAVIOUR_ADVERSARIES[adversary_key](),
                lane, tasks=tasks,
            )
            for lane in MODES
        ]
        reference = outcomes[-1]
        assert reference[0] == "raised" and reference[1] is error_type
        assert_outcomes_agree(outcomes)

    @pytest.mark.parametrize("algorithm_key", ["X", "V", "W"])
    def test_non_cycle_item_raises_program_error_everywhere(
        self, algorithm_key
    ):
        # The error X's program raises, on V and W too, and on the
        # generator lanes as well as the kernel lanes.
        tasks, _ = MISBEHAVING_TASKS["not-a-cycle-first"]
        for lane in MODES:
            outcome = run_tasks(algorithm_key, None, lane, tasks=tasks)
            assert outcome[1] is ProgramError
            assert "program yielded 'x', expected a Cycle" in outcome[2]
