"""Machine-core tests: lock-step semantics, failures, accounting."""

import pytest

from repro.pram.cycles import Cycle, Write, snapshot_cycle
from repro.pram.errors import (
    AdversaryError,
    ProgramError,
    ProgressViolationError,
    TickLimitError,
)
from repro.pram.failures import AFTER_ALL_WRITES, BEFORE_WRITES, Decision
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.policies import Erew, PriorityCrcw
from repro.faults.base import Adversary


class OneShot(Adversary):
    """Applies a single decision at a given tick."""

    def __init__(self, tick, decision):
        self.tick = tick
        self.decision = decision

    def decide(self, view):
        if view.time == self.tick:
            return self.decision
        return Decision.none()


def make_machine(p, mem_size, program, **kwargs):
    machine = Machine(p, SharedMemory(mem_size), **kwargs)
    machine.load_program(program)
    return machine


class TestLockStepSemantics:
    def test_reads_see_tick_start_state(self):
        """Two processors swap cells — both reads precede both writes."""

        def swapper(pid):
            other = 1 - pid
            values = yield Cycle(
                reads=(other,), writes=lambda v, pid=pid: (Write(pid, v[0]),)
            )

        machine = make_machine(2, 2, swapper)
        machine.memory.poke(0, 10)
        machine.memory.poke(1, 20)
        machine.step()
        assert machine.memory.peek(0) == 20
        assert machine.memory.peek(1) == 10

    def test_dependent_read_addresses(self):
        """A second read address computed from the first read's value."""

        def chaser(pid):
            values = yield Cycle(
                reads=(0, lambda so_far: so_far[0]),
                writes=lambda v: (Write(3, v[1]),),
            )

        machine = make_machine(1, 4, chaser)
        machine.memory.poke(0, 2)   # pointer to cell 2
        machine.memory.poke(2, 77)  # payload
        machine.step()
        assert machine.memory.peek(3) == 77

    def test_dependent_read_none_skips(self):
        def reader(pid):
            values = yield Cycle(
                reads=(0, lambda so_far: None),
                writes=lambda v: (Write(1, v[1] + 5),),
            )

        machine = make_machine(1, 2, reader)
        machine.step()
        assert machine.memory.peek(1) == 5  # skipped read yields 0

    def test_one_cycle_per_tick(self):
        def writer(pid):
            for index in range(3):
                yield Cycle(writes=(Write(index, 1),))

        machine = make_machine(1, 3, writer)
        machine.step()
        assert machine.memory.snapshot() == [1, 0, 0]
        machine.step()
        assert machine.memory.snapshot() == [1, 1, 0]


class TestBudgets:
    def test_read_limit_enforced(self):
        def greedy(pid):
            yield Cycle(reads=(0, 1, 2, 3, 0))

        machine = make_machine(1, 4, greedy)
        with pytest.raises(ProgramError, match="reads 5"):
            machine.step()

    def test_write_limit_enforced(self):
        def greedy(pid):
            yield Cycle(writes=(Write(0, 1), Write(1, 1), Write(2, 1)))

        machine = make_machine(1, 4, greedy)
        with pytest.raises(ProgramError, match="writes 3"):
            machine.step()

    def test_snapshot_requires_permission(self):
        def snapper(pid):
            yield snapshot_cycle(lambda values: ())

        machine = make_machine(1, 4, snapper)
        with pytest.raises(ProgramError, match="snapshot"):
            machine.step()

    def test_snapshot_allowed_when_enabled(self):
        def snapper(pid):
            values = yield snapshot_cycle(
                lambda v: (Write(0, sum(v)),)
            )

        machine = make_machine(1, 4, snapper, allow_snapshot=True)
        machine.memory.poke(1, 3)
        machine.memory.poke(2, 4)
        machine.step()
        assert machine.memory.peek(0) == 7


class TestConcurrentWrites:
    def test_common_agreement(self):
        def agree(pid):
            yield Cycle(writes=(Write(0, 9),))

        machine = make_machine(3, 1, agree)
        machine.step()
        assert machine.memory.peek(0) == 9

    def test_priority_policy(self):
        def write_pid(pid):
            yield Cycle(writes=(Write(0, pid + 10),))

        machine = make_machine(3, 1, write_pid, policy=PriorityCrcw())
        machine.step()
        assert machine.memory.peek(0) == 10  # lowest PID

    def test_erew_read_conflict_detected(self):
        def read0(pid):
            yield Cycle(reads=(0,))

        machine = make_machine(2, 1, read0, policy=Erew())
        from repro.pram.errors import ReadConflictError
        with pytest.raises(ReadConflictError):
            machine.step()


class TestFailureGranularity:
    def make_two_write_machine(self, decision_k):
        def writer(pid):
            yield Cycle(writes=(Write(0, 1), Write(1, 1)))
            yield Cycle(writes=(Write(2, 1),))

        adversary = OneShot(1, Decision(failures={0: decision_k}))
        return make_machine(
            2, 3, writer, adversary=adversary, enforce_progress=False
        )

    def test_fail_before_writes(self):
        machine = self.make_two_write_machine(BEFORE_WRITES)
        machine.step()
        # pid 0 contributed nothing; pid 1 wrote both cells.
        assert machine.memory.peek(0) == 1  # pid 1 wrote it too
        assert machine.processors[0].is_failed
        assert machine.ledger.completed_by_pid.get(0, 0) == 0
        assert machine.ledger.attempted_by_pid[0] == 1

    def test_fail_between_writes_applies_prefix(self):
        def writer(pid):
            yield Cycle(writes=(Write(0, 5), Write(1, 5)))

        adversary = OneShot(1, Decision(failures={0: 1}))
        machine = make_machine(
            1, 2, writer, adversary=adversary, enforce_progress=False
        )
        machine.step()
        assert machine.memory.peek(0) == 5  # first atomic write landed
        assert machine.memory.peek(1) == 0  # second did not

    def test_fail_after_all_writes_lands_everything_uncharged(self):
        def writer(pid):
            yield Cycle(writes=(Write(0, 5), Write(1, 5)))

        adversary = OneShot(1, Decision(failures={0: AFTER_ALL_WRITES}))
        machine = make_machine(
            1, 2, writer, adversary=adversary, enforce_progress=False
        )
        machine.step()
        assert machine.memory.peek(0) == 5
        assert machine.memory.peek(1) == 5
        assert machine.ledger.completed_work == 0  # interrupted cycle
        assert machine.ledger.charged_work == 1


class TestRestartSemantics:
    def test_restart_reruns_program_from_start(self):
        trace = []

        def program(pid):
            trace.append(("start", pid))
            yield Cycle(writes=(Write(0, 1),))
            yield Cycle(writes=(Write(1, 1),))

        adversary = OneShot(1, Decision(failures={0: BEFORE_WRITES},
                                        restarts=frozenset({0})))
        machine = make_machine(
            2, 2, program, adversary=adversary, enforce_progress=False
        )
        machine.step()  # pid 0 fails and restarts within the tick
        machine.step()
        assert trace.count(("start", 0)) == 2
        assert machine.ledger.pattern.failure_count == 1
        assert machine.ledger.pattern.restart_count == 1

    def test_restarted_processor_runs_next_tick(self):
        def program(pid):
            yield Cycle(writes=(Write(pid, 1),))

        adversary = OneShot(1, Decision(failures={0: BEFORE_WRITES},
                                        restarts=frozenset({0})))
        machine = make_machine(
            2, 2, program, adversary=adversary, enforce_progress=False
        )
        machine.step()
        assert machine.memory.peek(0) == 0  # failed before its write
        machine.step()
        assert machine.memory.peek(0) == 1  # restarted incarnation wrote

    def test_invalid_restart_rejected(self):
        def program(pid):
            yield Cycle()
            yield Cycle()

        adversary = OneShot(1, Decision(restarts=frozenset({0})))
        machine = make_machine(1, 1, program, adversary=adversary)
        with pytest.raises(AdversaryError, match="restarted"):
            machine.step()

    def test_failing_non_running_pid_rejected(self):
        def program(pid):
            yield Cycle()

        adversary = OneShot(1, Decision(failures={5: BEFORE_WRITES}))
        machine = make_machine(1, 1, program, adversary=adversary)
        with pytest.raises(AdversaryError, match="no pending"):
            machine.step()


class _Index:
    """An integer-like object: what ``operator.index`` accepts."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestMalformedDecisions:
    """Both lanes reject a malformed decision with the same error."""

    @staticmethod
    def program(pid):
        while True:
            yield Cycle(writes=(Write(pid, 1),))

    def outcomes(self, decision):
        messages = []
        for fast_path in (True, False):
            machine = make_machine(
                2, 2, self.program, adversary=OneShot(1, decision),
                fast_path=fast_path,
            )
            with pytest.raises(AdversaryError) as exc:
                machine.step()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        return messages[0]

    @pytest.mark.parametrize("count", [0.5, 1.0, "1", None, True])
    def test_non_integer_failure_count(self, count):
        message = self.outcomes(Decision(failures={0: count}))
        assert f"{count!r} writes for pid 0" in message

    @pytest.mark.parametrize("pid", [0.0, True, "0"])
    def test_non_integer_failed_pid(self, pid):
        message = self.outcomes(Decision(failures={pid: BEFORE_WRITES}))
        assert f"failed pid {pid!r}" in message

    @pytest.mark.parametrize("pid", ["0", 0.0, True])
    def test_non_integer_restart_pid(self, pid):
        message = self.outcomes(Decision(
            failures={0: BEFORE_WRITES}, restarts=frozenset({pid}),
        ))
        assert f"restarted unknown pid {pid!r}" in message

    def test_mixed_restart_pids(self):
        message = self.outcomes(Decision(
            failures={0: BEFORE_WRITES, 1: BEFORE_WRITES},
            restarts=frozenset({"0", 1}),
        ))
        assert "restarted unknown pid '0'" in message

    @pytest.mark.parametrize("pid", [True, 0.0, "0", None])
    def test_non_integer_stalled_pid(self, pid):
        message = self.outcomes(Decision(stalls=frozenset({pid})))
        assert f"stalled pid {pid!r}" in message

    @pytest.mark.parametrize("failed, stalled", [
        (_Index(0), 0), (0, _Index(0)),
    ])
    def test_stalled_and_failed_by_another_index_type(self, failed,
                                                      stalled):
        message = self.outcomes(Decision(
            failures={failed: BEFORE_WRITES}, stalls=frozenset({stalled}),
        ))
        assert "both stalled and failed pid 0" in message

    def test_index_types_are_accepted(self):
        # Integer types other than int (numpy's, say) are integers.
        ledgers = []
        for fast_path in (True, False):
            decision = Decision(failures={_Index(0): _Index(1)})
            machine = make_machine(
                2, 2, self.program, adversary=OneShot(1, decision),
                fast_path=fast_path,
            )
            machine.step()
            assert machine.memory.peek(0) == 1  # its one write landed
            assert machine.processors[0].is_failed
            ledgers.append(list(machine.ledger.pattern))
        assert ledgers[0] == ledgers[1]

    def test_index_type_stall_is_accepted(self):
        for fast_path in (True, False):
            decision = Decision(stalls=frozenset({_Index(1)}))
            machine = make_machine(
                2, 2, self.program, adversary=OneShot(1, decision),
                fast_path=fast_path,
            )
            machine.step()
            assert machine.memory.raw_cells() == [1, 0]  # pid 1 waited
            assert machine.ledger.completed_per_tick == [1]
            assert list(machine.ledger.pattern) == []


class TestProgressCondition:
    def fail_all_adversary(self):
        class FailAll(Adversary):
            def decide(self, view):
                return Decision.fail(view.pending.keys(), BEFORE_WRITES)

        return FailAll()

    def test_veto_spares_one_processor(self):
        def program(pid):
            while True:
                yield Cycle(writes=(Write(0, 1),))

        machine = make_machine(3, 1, program, adversary=self.fail_all_adversary())
        machine.step()
        assert machine.ledger.progress_vetoes == 1
        assert machine.ledger.completed_per_tick[-1] == 1

    def test_strict_mode_raises(self):
        def program(pid):
            while True:
                yield Cycle()

        machine = make_machine(
            2, 1, program,
            adversary=self.fail_all_adversary(),
            enforce_progress=False, strict_progress=True,
        )
        with pytest.raises(ProgressViolationError):
            machine.step()

    def test_unenforced_mode_allows_violation(self):
        def program(pid):
            while True:
                yield Cycle()

        machine = make_machine(
            2, 1, program,
            adversary=self.fail_all_adversary(),
            enforce_progress=False,
        )
        machine.step()
        assert machine.ledger.completed_per_tick[-1] == 0

    def test_all_failed_machine_forces_a_restart(self):
        """Once every processor is down the machine revives the lowest PID."""

        class KillThenSilence(Adversary):
            def decide(self, view):
                if view.pending:
                    return Decision.fail(view.pending.keys(), BEFORE_WRITES)
                return Decision.none()

        def program(pid):
            while True:
                yield Cycle(writes=(Write(0, 1),))

        machine = make_machine(
            2, 1, program, adversary=KillThenSilence(), enforce_progress=True
        )
        machine.step()  # veto spares one; suppose adversary kills next tick
        # Force-everything-down scenario: manually fail all then tick.
        for processor in machine.processors:
            if processor.is_running:
                processor.fail()
        machine.step()
        assert any(processor.is_running for processor in machine.processors)
        assert machine.ledger.pattern.restart_count >= 1


class TestAccounting:
    def test_completed_work_counts_cycles(self):
        def program(pid):
            for _ in range(4):
                yield Cycle()

        machine = make_machine(3, 1, program)
        ledger = machine.run(max_ticks=100)
        assert ledger.completed_work == 12
        assert ledger.halted

    def test_completed_per_tick_series(self):
        def program(pid):
            for _ in range(pid + 1):
                yield Cycle()

        machine = make_machine(3, 1, program)
        machine.run(max_ticks=100)
        assert machine.ledger.completed_per_tick == [3, 2, 1]

    def test_memory_traffic_recorded(self):
        def program(pid):
            yield Cycle(reads=(0,), writes=(Write(0, 1),))

        machine = make_machine(2, 1, program)
        machine.run(max_ticks=10)
        assert machine.ledger.memory_reads == 2
        assert machine.ledger.memory_writes == 1  # resolved concurrent write


class TestRun:
    def test_until_predicate_stops_run(self):
        def program(pid):
            for index in range(100):
                yield Cycle(writes=(Write(0, index),))

        machine = make_machine(1, 1, program)
        ledger = machine.run(until=lambda memory: memory.read(0) >= 3,
                             max_ticks=1000)
        assert ledger.goal_reached
        assert ledger.ticks == 4

    def test_until_true_before_first_tick(self):
        def program(pid):
            yield Cycle()

        machine = make_machine(1, 1, program)
        ledger = machine.run(until=lambda memory: True)
        assert ledger.goal_reached
        assert ledger.ticks == 0

    def test_tick_limit_raises_by_default(self):
        def forever(pid):
            while True:
                yield Cycle()

        machine = make_machine(1, 1, forever)
        with pytest.raises(TickLimitError):
            machine.run(max_ticks=5)

    def test_tick_limit_flag_when_not_raising(self):
        def forever(pid):
            while True:
                yield Cycle()

        machine = make_machine(1, 1, forever)
        ledger = machine.run(max_ticks=5, raise_on_limit=False)
        assert ledger.tick_limited

    def test_all_halted_ends_run(self):
        def short(pid):
            yield Cycle()

        machine = make_machine(4, 1, short)
        ledger = machine.run(max_ticks=10)
        assert ledger.halted
        assert all(processor.is_halted for processor in machine.processors)

    def test_requires_loaded_program(self):
        machine = Machine(1, SharedMemory(1))
        with pytest.raises(ProgramError, match="load_program"):
            machine.step()


class TestUntilEvaluation:
    """run() evaluates `until` exactly once per machine state."""

    @staticmethod
    def _counting(predicate):
        calls = {"count": 0}

        def counted(memory):
            calls["count"] += 1
            return predicate(memory)

        return counted, calls

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_once_per_state_when_goal_reached(self, fast_path):
        def program(pid):
            for index in range(100):
                yield Cycle(writes=(Write(0, index),))

        machine = make_machine(1, 1, program, fast_path=fast_path)
        until, calls = self._counting(lambda memory: memory.read(0) >= 3)
        ledger = machine.run(until=until, max_ticks=1000)
        assert ledger.goal_reached
        # One pre-run evaluation plus one per executed tick.
        assert calls["count"] == ledger.ticks + 1

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_once_per_state_at_tick_limit(self, fast_path):
        def forever(pid):
            while True:
                yield Cycle()

        machine = make_machine(1, 1, forever, fast_path=fast_path)
        until, calls = self._counting(lambda memory: False)
        ledger = machine.run(until=until, max_ticks=5, raise_on_limit=False)
        assert ledger.tick_limited
        assert ledger.ticks == 5
        # The limit check must not re-evaluate the predicate: 1 pre-run
        # + 5 post-tick evaluations, not 6 + a duplicate at the boundary.
        assert calls["count"] == 6

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_goal_wins_over_tick_limit_at_boundary(self, fast_path):
        def program(pid):
            for index in range(10):
                yield Cycle(writes=(Write(0, index + 1),))

        machine = make_machine(1, 1, program, fast_path=fast_path)
        # The goal becomes true exactly on the tick that exhausts the
        # budget; the run must report success, not a limit violation.
        ledger = machine.run(until=lambda memory: memory.read(0) >= 3,
                             max_ticks=3, raise_on_limit=True)
        assert ledger.goal_reached
        assert not ledger.tick_limited
        assert ledger.ticks == 3
