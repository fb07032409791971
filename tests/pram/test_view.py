"""Unit tests for the adversary's tick view."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.faults.base import Adversary
from repro.pram.cycles import Cycle, Write
from repro.pram.failures import Decision
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.processor import ProcessorStatus
from repro.pram.view import PendingCycleView, TickView


class Recorder(Adversary):
    def __init__(self):
        self.views = []

    def decide(self, view):
        self.views.append(view)
        return Decision.none()


def build(num_processors, program, context=None):
    recorder = Recorder()
    machine = Machine(
        num_processors, SharedMemory(8), adversary=recorder, context=context
    )
    machine.load_program(program)
    return machine, recorder


class TestTickView:
    def test_pending_exposes_computed_writes(self):
        def program(pid):
            values = yield Cycle(reads=(0,), writes=lambda v: (Write(1, v[0] + 1),))

        machine, recorder = build(1, program)
        machine.memory.poke(0, 6)
        machine.step()
        view = recorder.views[0]
        pending = view.pending[0]
        assert pending.read_values == (6,)
        assert pending.writes == (Write(1, 7),)
        assert pending.writes_to(1)
        assert not pending.writes_to(0)

    def test_status_partitions(self):
        def program(pid):
            if pid == 0:
                return
                yield  # pragma: no cover
            yield Cycle()
            yield Cycle()

        machine, recorder = build(3, program)
        machine.step()
        view = recorder.views[0]
        assert view.halted_pids == (0,)
        assert view.running_pids == (1, 2)
        assert view.failed_pids == ()

    def test_writers_of(self):
        def program(pid):
            yield Cycle(writes=(Write(2, 1),) if pid != 1 else ())

        machine, recorder = build(3, program)
        machine.step()
        view = recorder.views[0]
        assert view.writers_of(2) == (0, 2)

    def test_context_passthrough(self):
        def program(pid):
            yield Cycle()

        machine, recorder = build(1, program, context={"layout": "marker"})
        machine.step()
        assert recorder.views[0].context["layout"] == "marker"

    def test_memory_is_read_only_view(self):
        def program(pid):
            yield Cycle()

        machine, recorder = build(1, program)
        machine.memory.poke(3, 42)
        machine.step()
        assert recorder.views[0].memory.read(3) == 42
        assert not hasattr(recorder.views[0].memory, "write")

    def test_time_is_one_based(self):
        def program(pid):
            yield Cycle()
            yield Cycle()

        machine, recorder = build(1, program)
        machine.step()
        machine.step()
        assert [view.time for view in recorder.views] == [1, 2]


class TestFailedPids:
    def test_failed_pids_match_statuses_on_every_tick(self):
        # The fast tick hands the view the failed pids of its status
        # cache; they must equal the partition the statuses give.
        from repro.core import AlgorithmX, solve_write_all
        from repro.faults import RandomAdversary, UnionAdversary
        from repro.pram.processor import ProcessorStatus

        class Checker(Adversary):
            failed_ticks = 0

            def decide(self, view):
                expected = tuple(
                    pid for pid, status in sorted(view.statuses.items())
                    if status is ProcessorStatus.FAILED
                )
                assert view.failed_pids == expected
                assert "_failed_pids" not in repr(view)
                self.failed_ticks += bool(expected)
                return Decision.none()

        for fast_path in (True, False):
            checker = Checker()
            solve_write_all(
                AlgorithmX(), 64, 16,
                adversary=UnionAdversary([
                    checker, RandomAdversary(0.2, 0.3, seed=5),
                ]),
                fast_path=fast_path, max_ticks=5_000,
            )
            assert checker.failed_ticks > 0


class TestTickViewRecord:
    """``TickView`` keeps the frozen dataclass's interface."""

    def views(self):
        pending = {1: PendingCycleView(1, Cycle(), (), ())}
        statuses = {
            0: ProcessorStatus.FAILED, 1: ProcessorStatus.RUNNING,
            2: ProcessorStatus.HALTED,
        }
        given = TickView(time=3, memory=None, statuses=statuses,
                         pending=pending, ledger=None, context={})
        observed = TickView(3, None, None, pending, None, {}, (0,), 3)
        return given, observed, statuses

    def test_observed_statuses_equal_the_given_table(self):
        given, observed, statuses = self.views()
        assert dict(observed.statuses) == statuses
        assert observed.statuses is observed.statuses  # built once
        assert observed == given
        assert observed.failed_pids == given.failed_pids == (0,)
        assert observed.running_pids == given.running_pids == (1,)
        assert observed.halted_pids == given.halted_pids == (2,)
        with pytest.raises(TypeError):
            observed.statuses[2] = ProcessorStatus.RUNNING

    def test_frozen(self):
        given, observed, _ = self.views()
        for view in (given, observed):
            with pytest.raises(FrozenInstanceError):
                view.time = 4
            with pytest.raises(FrozenInstanceError):
                del view.pending
            with pytest.raises(FrozenInstanceError):
                view.statuses = {}

    def test_equality_repr_and_pickle(self):
        given, observed, statuses = self.views()
        assert given != (3, None, statuses)
        assert given != TickView(4, None, statuses, given.pending, None, {})
        assert repr(given) == (
            f"TickView(time=3, memory=None, statuses={statuses!r}, "
            f"pending={given.pending!r}, ledger=None, context={{}})"
        )
        assert repr(observed) == repr(given).replace(
            repr(statuses), repr(observed.statuses)
        )
        for view in (given, observed):
            assert pickle.loads(pickle.dumps(view)) == view
