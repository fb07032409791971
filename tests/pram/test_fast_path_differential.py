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

The ``vec`` lane needs the optional numpy extra and is skipped (not
failed) when it is absent; the remaining lanes always run.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    SnapshotAlgorithm,
    solve_write_all,
)
from repro.core.runner import default_tick_budget
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
from repro.faults.base import ScheduledAdversary
from repro.pram.compiled import resolve_kernel
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import (
    MemoryError_,
    PramError,
    ReadConflictError,
    WriteConflictError,
)
from repro.pram.lanes import LANES, lane_available
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.policies import CommonCrcw, Crew, Erew, RotatingArbitraryCrcw
from repro.pram.trace import Tracer
from repro.pram.vectorized import resolve_vectorized

ALGORITHMS = {
    "W": AlgorithmW,
    "V": AlgorithmV,
    "VX": AlgorithmVX,
    "X": AlgorithmX,
    "snapshot": SnapshotAlgorithm,
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


#: The legs every configuration runs through, straight from the lane
#: registry (``repro.pram.lanes``): fast, noff (no fast-forward),
#: nokernel (no compiled kernels), vec (``--lane vec``, when numpy is
#: installed), auto (``--lane auto``), and the reference core last.  Algorithms without a
#: kernel or vector program silently run the generator protocol on
#: every leg — the legs still must agree.
MODES = tuple(LANES[name] for name in LANES if lane_available(name))


def run_both(algorithm_key, adversary_factory, n=64, p=16, **kwargs):
    """Run one configuration through all available lanes, reference last."""
    outcomes = []
    for lane in MODES:
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
            vector_dispatch="auto" if lane.vectorized == "auto" else "always",
        )
        try:
            ledger = machine.run(
                until=algorithm.until_predicate(layout),
                max_ticks=default_tick_budget(n, p),
            )
        except WriteConflictError as error:
            return "raised", str(error), machine.ledger.ticks
        return "finished", ledger, memory.snapshot()

    def assert_lanes_agree(self, n, p, adversary_factory):
        outcomes = [
            self.outcome(lane, n, p, adversary_factory()) for lane in MODES
        ]
        reference = outcomes[-1]
        for outcome in outcomes[:-1]:
            if reference[0] == "raised":
                assert outcome == reference
            else:
                assert outcome[0] == "finished", outcome
                assert_ledgers_identical(outcome[1], reference[1])
                assert outcome[2] == reference[2]

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
        # per-tick loop would.
        from repro.core.base import done_predicate
        from repro.pram.compiled import resolve_kernel
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory
        from repro.pram.vectorized import resolve_vectorized

        ticks = []
        for lane in MODES:
            algorithm = AlgorithmX()
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
            ledger = machine.run(until=done_predicate(layout),
                                 max_ticks=100_000)
            assert ledger.goal_reached
            assert not ledger.tick_limited
            ticks.append(ledger.ticks)
        assert len(set(ticks)) == 1

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
        # `passive = True` must not be trusted through inheritance: a
        # subclass that overrides decide() (here, to actually kill a
        # processor) has to be consulted every tick.
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

    def test_passive_declared_with_decide_is_honored(self):
        class Quiet(NoFailures):
            passive = True

            def decide(self, view):  # pragma: no cover - must be skipped
                raise AssertionError("passive adversary was consulted")

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
#: Word width of the bounded memory: values must stay below 2**5 = 32.
WORD_BITS = 5


def config_program(kind):
    """A memory-driven counting program, one of five kinds.

    Each PID counts its own cell up to ``COUNT_TO`` (a restarted PID
    resumes from memory) and halts; every cycle also reads and writes
    its own double cell.  ``clean`` is conflict-free under every policy
    and fits the bounded word.  ``erew-read`` reads the shared cell
    when its counter is ``HOT``, ``crew-write`` writes its PID there
    then, ``crew-agree`` has the even PIDs write the same value there
    then (a conflict under CREW although the writers agree), and
    ``overflow`` doubles twice as fast, leaving the bounded word once
    the counter reaches 8.
    """
    def second_read(pid):
        if kind == "erew-read":
            return lambda values: SHARED_CELL if values[0] == HOT else CONFIG_P + pid
        # A dependent read that skips (charging nothing) on odd counts.
        return lambda values: None if values[0] % 2 else CONFIG_P + pid

    def writes(pid):
        factor = 4 if kind == "overflow" else 2

        def compute(values):
            count = values[0] + 1
            if kind == "crew-write" and values[0] == HOT:
                return (Write(pid, count), Write(SHARED_CELL, pid))
            if kind == "crew-agree" and values[0] == HOT and pid % 2 == 0:
                return (Write(pid, count), Write(SHARED_CELL, HOT))
            return (Write(pid, count), Write(CONFIG_P + pid, factor * count))

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
    "EREW": lambda: (Erew(), None),
    "CREW": lambda: (Crew(), None),
    "word-width": lambda: (CommonCrcw(), WORD_BITS),
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
    policy, word_bits = CONFIG_POLICIES[policy_key]()
    memory = SharedMemory(SHARED_CELL + 1, word_bits=word_bits)
    machine = Machine(
        num_processors=CONFIG_P, memory=memory, policy=policy,
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
    """EREW reads, CREW writes and word-width memory on every tick body.

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
        ("overflow", "word-width", MemoryError_),
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
