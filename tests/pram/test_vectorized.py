"""Unit tests for the vectorized lane's guards, gating, and registry.

The heavy bit-identity claims live in the differential suite
(``test_fast_path_differential.py``, whose forced-vec leg sends every
eligible window to the vector programs) and the CRCW property tests
(``tests/properties/``); this file covers the plumbing around them —
the lane registry every consumer enumerates, the optional-dependency
and kernel switches, the trust rule for the hook, per-algorithm
gating, and the window's memory-sync accounting.
"""

import pytest

from repro.core import AlgorithmW, AlgorithmX, TrivialAssignment
from repro.core.tasks import CycleFactoryTasks
from repro.pram.cycles import Cycle
from repro.pram.lanes import LANES
from repro.pram import vectorized as vectorized_module
from repro.pram.vectorized import HAVE_NUMPY, resolve_vectorized
from repro.util.hooks import trusted_hook
from tests.conftest import FORCED_VEC, lane_dispatch, vector_windows_forced


class TestLaneRegistry:
    def test_five_lanes_reference_last(self):
        names = list(LANES)
        assert names == ["fast", "noff", "nokernel", "auto", "reference"]

    def test_solver_kwargs_cover_all_switches(self):
        for lane in LANES.values():
            kwargs = lane.solver_kwargs()
            assert set(kwargs) == {
                "fast_path", "fast_forward", "compiled", "vectorized"
            }

    def test_reference_lane_disables_everything(self):
        kwargs = LANES["reference"].solver_kwargs()
        assert not any(kwargs.values())

    def test_only_auto_is_vectorized(self):
        assert [n for n, lane in LANES.items() if lane.vectorized] \
            == ["auto"]

    @staticmethod
    def sched_sparse_outcomes(lane):
        from repro.core import solve_write_all
        from repro.faults import registry

        outcomes = []
        for algorithm_cls in (TrivialAssignment, AlgorithmW):
            with lane_dispatch(lane):
                result = solve_write_all(
                    algorithm_cls(), 256, 8,
                    adversary=registry.build("sched-sparse", seed=0,
                                             victims=8),
                    **lane.solver_kwargs(),
                )
            outcomes.append((
                result.solved, result.completed_work, result.charged_work,
                result.pattern_size, result.ledger.ticks,
                result.memory.snapshot(),
            ))
        return outcomes

    @pytest.mark.parametrize(
        "lane", [*LANES.values(), FORCED_VEC],
        ids=[*LANES, FORCED_VEC.name],
    )
    def test_every_lane_runs_without_numpy(self, monkeypatch, lane):
        # No lane needs the numpy extra: without it the vectorized lanes
        # install no vector program and match the reference lane, and
        # nothing reaches for the missing module.
        reference = self.sched_sparse_outcomes(LANES["reference"])
        monkeypatch.setattr(vectorized_module, "HAVE_NUMPY", False)
        monkeypatch.setattr(vectorized_module, "_np", None)
        assert self.sched_sparse_outcomes(lane) == reference


class TestSwitches:
    @pytest.mark.parametrize("vectorized", [True, "auto"])
    def test_without_numpy_every_true_value_runs_scalar(
            self, monkeypatch, vectorized):
        monkeypatch.setattr(vectorized_module, "HAVE_NUMPY", False)
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 4)
        assert resolve_vectorized(
            algorithm, layout, None, vectorized=vectorized
        ) is None

    def test_default_never_touches_numpy(self, monkeypatch):
        monkeypatch.setattr(vectorized_module, "_np", None)
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 4)
        assert resolve_vectorized(algorithm, layout, None) is None

    @pytest.mark.skipif(not HAVE_NUMPY, reason="vector programs need numpy")
    @pytest.mark.parametrize("vectorized", [True, "auto"])
    def test_every_true_value_lets_dispatch_choose(
            self, monkeypatch, vectorized):
        # At 64x16 the calibrated model keeps W's windows scalar: a true
        # switch installs the vector program and no more.
        from repro.core import solve_write_all
        from repro.core.vector_kernels import WVector
        from repro.pram.dispatch import set_model

        bursts = []
        original = WVector.run_quiet

        def counting(self, *args, **kwargs):
            bursts.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(WVector, "run_quiet", counting)
        set_model(None)
        solve_write_all(AlgorithmW(), 64, 16, vectorized=vectorized)
        assert bursts == []
        with vector_windows_forced():
            solve_write_all(AlgorithmW(), 64, 16, vectorized=vectorized)
        assert bursts

    @staticmethod
    def spy_kernel_mode(monkeypatch):
        """Record whether each loaded program runs on kernels."""
        from repro.pram.machine import Machine

        modes = []
        real = Machine.load_program

        def load_program(machine, *args, **kwargs):
            real(machine, *args, **kwargs)
            modes.append(machine._kernel_mode)

        monkeypatch.setattr(Machine, "load_program", load_program)
        return modes

    @pytest.mark.skipif(not HAVE_NUMPY, reason="vector programs need numpy")
    @pytest.mark.parametrize("vectorized", [True, "auto"])
    @pytest.mark.parametrize("algorithm_cls", [TrivialAssignment, AlgorithmW])
    def test_compiled_false_keeps_the_solver_on_generators(
            self, monkeypatch, algorithm_cls, vectorized):
        from repro.core import solve_write_all

        modes = self.spy_kernel_mode(monkeypatch)
        result = solve_write_all(
            algorithm_cls(), 64, 4, compiled=False, vectorized=vectorized
        )
        assert result.solved
        assert modes == [False]

    def test_compiled_false_keeps_the_simulator_on_generators(
            self, monkeypatch):
        from repro.simulation import RobustSimulator
        from repro.simulation.programs import prefix_sum_program

        modes = self.spy_kernel_mode(monkeypatch)
        result = RobustSimulator(
            p=2, algorithm=AlgorithmW(), compiled=False, vectorized=True,
        ).execute(prefix_sum_program(4), [1, 2, 3, 4])
        assert result.solved
        assert modes and not any(modes)


def trusted_vectorized_program(algorithm):
    """The vector hook under the trust rule ``resolve_vectorized``
    applies."""
    return trusted_hook(algorithm, "vectorized_program", "program")


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector programs need numpy")
class TestTrustGuardAndGating:
    def test_stock_algorithms_are_trusted(self):
        for algorithm in (TrivialAssignment(), AlgorithmW()):
            assert trusted_vectorized_program(algorithm) is not None

    def test_subclass_overriding_program_is_untrusted(self):
        class Hijacked(TrivialAssignment):
            def program(self, layout, tasks=None):  # pragma: no cover
                def factory(pid):
                    yield Cycle(label="hijacked")
                return factory

        assert trusted_vectorized_program(Hijacked()) is None
        layout = Hijacked().build_layout(16, 4)
        assert resolve_vectorized(
            Hijacked(), layout, None, vectorized=True
        ) is None

    def test_instance_patched_program_is_untrusted(self):
        algorithm = TrivialAssignment()
        algorithm.program = lambda layout, tasks=None: None
        assert trusted_vectorized_program(algorithm) is None

    def test_resolves_for_default_tasks(self):
        for algorithm in (TrivialAssignment(), AlgorithmW()):
            layout = algorithm.build_layout(16, 4)
            program = resolve_vectorized(
                algorithm, layout, None, vectorized=True
            )
            assert program is not None

    def test_gates_to_scalar_for_nontrivial_tasks(self):
        tasks = CycleFactoryTasks(
            cycles_per_task=2,
            factory=lambda element, pid: [Cycle(label="t")] * 2,
        )
        for algorithm in (TrivialAssignment(), AlgorithmW()):
            layout = algorithm.build_layout(16, 4)
            assert resolve_vectorized(
                algorithm, layout, tasks, vectorized=True
            ) is None

    def test_x_ships_no_vector_program(self):
        for routing in ("pid", "random"):
            algorithm = AlgorithmX(routing=routing)
            layout = algorithm.build_layout(16, 4)
            assert resolve_vectorized(
                algorithm, layout, None, vectorized=True
            ) is None

    def test_off_switch_wins_over_everything(self):
        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 4)
        assert resolve_vectorized(
            algorithm, layout, None, vectorized=False
        ) is None


@pytest.mark.skipif(not HAVE_NUMPY, reason="window tests need numpy")
class TestResidency:
    """The persistent window: suspend/resume journaling and writeback.

    The resident mirror is only correct if every external write while
    the window is suspended lands in the mirror on resume, and if the
    dirty-cell writeback leaves memory (including zero-region trackers)
    exactly as a full ``replace_cells`` would.
    """

    def _window(self, size, goal=None):
        import numpy as np  # noqa: F401  (HAVE_NUMPY gate ran)

        from repro.pram.memory import SharedMemory
        from repro.pram.policies import CommonCrcw
        from repro.pram.vectorized import VectorWindow

        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 4)
        program = resolve_vectorized(algorithm, layout, None, vectorized=True)
        memory = SharedMemory(size)
        return VectorWindow(program, memory, CommonCrcw(), goal=goal), memory

    def test_resume_refreshes_journaled_cells(self):
        window, memory = self._window(16, goal=(0, 8))
        window.flush()
        assert window.suspended
        # External (scalar-path) writes while suspended: journaled.
        memory.write(3, 7)
        memory.write(5, 0)
        memory.poke(12, 9)
        window.resume((0, 8))
        assert not window.suspended
        assert int(window.cells[3]) == 7
        assert int(window.cells[5]) == 0
        assert int(window.cells[12]) == 9
        # The goal count was re-read from the tracker, which the scalar
        # write paths kept exact (cell 5 stayed zero, cell 3 filled).
        assert window.goal_zeros == 7

    def test_back_to_back_resume_is_a_noop(self):
        window, memory = self._window(16)
        window.flush()
        before = window.cells.copy()
        window.resume(None)
        assert (window.cells == before).all()

    def test_bulk_rewrite_overflows_the_journal(self):
        window, memory = self._window(8)
        window.flush()
        values = [9, 8, 7, 6, 5, 4, 3, 2]
        memory.replace_cells(values)
        assert window._watcher.overflow
        window.resume(None)
        assert window.cells.tolist() == values

    def test_dirty_writeback_matches_replace_cells(self):
        import numpy as np

        # Sparse dirty set: flush takes the per-cell sync path.
        window, memory = self._window(64, goal=(0, 32))
        tracker = memory.track_zeros(0, 32)
        window.commit(
            np.asarray([2, 40]), np.asarray([0, 1]), np.asarray([5, 6])
        )
        window.flush()
        expected = [0] * 64
        expected[2], expected[40] = 5, 6
        assert memory.snapshot() == expected
        assert tracker.zeros == 31
        assert not window.dirty.any()

        # Dense dirty set: flush falls back to a full replace_cells.
        window, memory = self._window(8, goal=(0, 8))
        tracker = memory.track_zeros(0, 8)
        window.commit(
            np.arange(6), np.zeros(6, dtype=int), np.asarray([1, 2, 3, 0, 4, 5])
        )
        window.flush()
        assert memory.snapshot() == [1, 2, 3, 0, 4, 5, 0, 0]
        assert tracker.zeros == 3
        assert not window.dirty.any()

    def test_window_survives_across_quiet_windows(self, monkeypatch):
        from repro.core import solve_write_all
        from repro.faults.base import ScheduledAdversary
        from repro.pram.vectorized import VectorProgram

        calls = {"count": 0}
        original = VectorProgram.begin_window

        def counting(self, memory, policy, goal):
            calls["count"] += 1
            return original(self, memory, policy, goal)

        monkeypatch.setattr(VectorProgram, "begin_window", counting)
        adversary = ScheduledAdversary({
            4: ([1], []), 8: ([], [1]), 12: ([2], []), 16: ([], [2]),
        })
        with vector_windows_forced():
            result = solve_write_all(
                TrivialAssignment(), 256, 8, adversary=adversary,
                vectorized=True,
            )
        assert result.solved
        assert result.pattern_size == 4
        # Five quiet windows ran (split by the four adversary events),
        # but the resident window was materialized exactly once.
        assert calls["count"] == 1

    def test_auto_is_bit_identical_to_scalar_under_faults(self):
        from repro.core import solve_write_all
        from repro.faults.base import ScheduledAdversary

        def schedule():
            return ScheduledAdversary({
                5: ([0, 3], []), 9: ([], [0]), 13: ([], [3]),
            })

        # Force auto to actually take the vector lane at this tiny size
        # (the calibrated model would stay scalar): the claim under test
        # is lane bit-identity regardless of what dispatch picks.
        for algorithm_cls in (TrivialAssignment, AlgorithmW):
            outcomes = {}
            for mode, vectorized in (("scalar", False), ("auto", "auto")):
                with vector_windows_forced():
                    result = solve_write_all(
                        algorithm_cls(), 64, 8, adversary=schedule(),
                        vectorized=vectorized,
                    )
                outcomes[mode] = (
                    result.completed_work, result.charged_work,
                    result.pattern_size, result.ledger.ticks,
                    result.memory.snapshot(),
                )
            assert outcomes["auto"] == outcomes["scalar"], \
                algorithm_cls.__name__


@pytest.mark.skipif(not HAVE_NUMPY, reason="window tests need numpy")
class TestWindowMemorySync:
    def test_replace_cells_count_zeros_matches_scan(self):
        from repro.pram.memory import SharedMemory

        memory = SharedMemory(16)
        tracker = memory.track_zeros(4, 8)
        values = [0, 1, 2, 0, 0, 5, 0, 7, 0, 0, 1, 0, 3, 0, 0, 0]
        expected = sum(1 for v in values[4:12] if v == 0)
        memory.replace_cells(
            values,
            count_zeros=lambda start, stop: sum(
                1 for v in values[start:stop] if v == 0
            ),
        )
        assert tracker.zeros == expected
        # and the default scan recount agrees
        memory.replace_cells(values)
        assert tracker.zeros == expected

    def test_out_of_range_commit_raises_reference_error(self):
        import numpy as np

        from repro.pram.errors import MemoryError_
        from repro.pram.memory import SharedMemory
        from repro.pram.policies import CommonCrcw
        from repro.pram.vectorized import VectorProgram, VectorWindow

        algorithm = TrivialAssignment()
        layout = algorithm.build_layout(16, 4)
        program = resolve_vectorized(algorithm, layout, None, vectorized=True)
        assert isinstance(program, VectorProgram)
        window = VectorWindow(
            program, SharedMemory(8), CommonCrcw(), goal=None
        )
        with pytest.raises(MemoryError_, match="out of range"):
            window.commit(
                np.asarray([99]), np.asarray([0]), np.asarray([1])
            )


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector programs need numpy")
class TestFaultyMemoryStaysScalar:
    """Memory with dead cells never enters a vector window.

    The resident mirror applies ``POISON`` only when it flushes, so a
    value written to a dead cell would stay readable later in the same
    window.  The machine therefore keeps vector programs off memory with
    static faults: every quiet window runs on the scalar ticks.
    """

    ALGORITHMS = (TrivialAssignment, AlgorithmW)

    @staticmethod
    def spy_run_quiet(monkeypatch):
        from repro.core.vector_kernels import TrivialVector, WVector

        calls = []
        for cls in (TrivialVector, WVector):
            original = cls.run_quiet

            def counting(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "run_quiet", counting)
        return calls

    @staticmethod
    def outcome(algorithm_cls, adversary, lane):
        from repro.core import solve_write_all
        from repro.faults import registry

        # Make `auto` pick vec wherever the machine lets it.
        with vector_windows_forced():
            result = solve_write_all(
                algorithm_cls(), 256, 16,
                adversary=registry.build(adversary, seed=3),
                **LANES[lane].solver_kwargs(),
            )
        return (
            result.solved, result.completed_work, result.charged_work,
            result.pattern_size, result.ledger.ticks,
            result.memory.snapshot(),
        )

    def test_static_mem_makes_no_vector_burst(self, monkeypatch):
        calls = self.spy_run_quiet(monkeypatch)
        for algorithm_cls in self.ALGORITHMS:
            outcome = self.outcome(algorithm_cls, "static-mem", "auto")
            reference = self.outcome(algorithm_cls, "static-mem", "reference")
            assert outcome == reference, algorithm_cls.__name__
        assert calls == []

    def test_fault_free_memory_still_vectorizes(self, monkeypatch):
        # The spy's positive control: the same solves on healthy memory
        # do burst through every vector program.
        calls = self.spy_run_quiet(monkeypatch)
        for algorithm_cls in self.ALGORITHMS:
            self.outcome(algorithm_cls, "none", "auto")
        assert set(calls) == {"TrivialVector", "WVector"}
