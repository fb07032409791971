"""Unit tests for the adaptive-dispatch cost model.

The model's job is pure prediction — both lanes are bit-identical by
the differential contract, so these tests pin down the *decisions* at
the calibrated crossovers (trivial dispatches vec almost everywhere,
W stays scalar until P is large), the residency discounts, which
algorithms consult the model at all, and the process-wide memoization
seam.  Wall-clock consequences are the e2e
benchmark's to measure (``benchmarks/e2e``); the ``auto`` lane's model
fields are gated by the ``A9_lane_matrix`` scenario's golden points.
"""

import pytest

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    TrivialAssignment,
    solve_write_all,
)
from repro.faults import registry
from repro.pram.dispatch import (
    DEFAULT_TABLE,
    DispatchModel,
    LaneCosts,
    get_model,
    set_model,
)
from repro.pram.lanes import LANES
from repro.pram.vectorized import HAVE_NUMPY


@pytest.fixture(autouse=True)
def _fresh_model():
    """Isolate the process-wide memoized model from other tests."""
    set_model(None)
    yield
    set_model(None)


class TestDefaultTable:
    def test_a_row_per_vector_program(self):
        assert set(DEFAULT_TABLE) == {"trivial", "W"}
        pytest.importorskip("numpy")
        from repro.core.vector_kernels import TrivialVector, WVector

        assert {TrivialVector.kind, WVector.kind} == set(DEFAULT_TABLE)

    def test_coefficients_are_sane(self):
        for kind, costs in DEFAULT_TABLE.items():
            assert costs.scalar_tick_lane_ns > 0, kind
            assert costs.vec_tick_ns > 0, kind
            assert costs.vec_tick_lane_ns > 0, kind
            assert costs.vec_window_ns >= 0, kind
            assert costs.vec_cell_ns > 0, kind
            assert costs.vec_pack_lane_ns > 0, kind


class TestPreferVector:
    """Decisions at the calibrated crossovers (scales pinned to 1.0)."""

    def prefer(self, kind, ticks, p, cells=4096, mirror=True, packed=True):
        model = DispatchModel()  # committed table, unscaled
        return model.prefer_vector(
            kind, ticks=ticks, p=p, cells=cells, mirror=mirror,
            packed=packed,
        )

    def test_trivial_crossover_is_tiny(self):
        # trivial's closed-form burst kernel has almost no fixed cost:
        # vec wins from a handful of lanes up, loses only at P=1.
        assert not self.prefer("trivial", ticks=1000, p=1)
        assert self.prefer("trivial", ticks=1000, p=8)
        assert self.prefer("trivial", ticks=1000, p=64)

    def test_w_crossover_near_p64(self):
        # W pays ~73us of array machinery per tick: at P=8 the scalar
        # lane's ~12us/tick is far cheaper.
        assert not self.prefer("W", ticks=1000, p=8)
        assert self.prefer("W", ticks=1000, p=64)
        assert self.prefer("W", ticks=1000, p=128)

    def test_kind_without_a_row_is_an_error(self):
        # Every vector program carries a calibrated row; X ships none.
        with pytest.raises(KeyError):
            self.prefer("X", ticks=1000, p=8)

    def test_cold_mirror_charges_cell_cost(self):
        # A table where the per-cell mirror build dominates: with a
        # resident mirror vec wins, from cold it must not.
        table = dict(DEFAULT_TABLE)
        table["custom"] = LaneCosts(
            scalar_tick_lane_ns=1000.0, vec_tick_ns=10.0,
            vec_tick_lane_ns=1.0, vec_window_ns=0.0,
            vec_cell_ns=1e6, vec_pack_lane_ns=0.0,
        )
        model = DispatchModel(table)
        common = dict(ticks=10, p=4, cells=65536, packed=True)
        assert model.prefer_vector("custom", mirror=True, **common)
        assert not model.prefer_vector("custom", mirror=False, **common)

    def test_cold_lanes_charge_pack_cost(self):
        table = dict(DEFAULT_TABLE)
        table["custom"] = LaneCosts(
            scalar_tick_lane_ns=1000.0, vec_tick_ns=10.0,
            vec_tick_lane_ns=1.0, vec_window_ns=0.0,
            vec_cell_ns=0.0, vec_pack_lane_ns=1e7,
        )
        model = DispatchModel(table)
        common = dict(ticks=10, p=4, cells=64, mirror=True)
        assert model.prefer_vector("custom", packed=True, **common)
        assert not model.prefer_vector("custom", packed=False, **common)

    def test_probe_scales_shift_the_crossover(self):
        # A host whose arrays are 100x slower than the reference must
        # stop dispatching vec at the calibrated crossover points.
        slow_vec = DispatchModel(scale_vector=100.0)
        assert not slow_vec.prefer_vector(
            "trivial", ticks=1000, p=64, cells=4096,
            mirror=True, packed=True,
        )
        slow_scalar = DispatchModel(scale_scalar=100.0)
        assert slow_scalar.prefer_vector(
            "W", ticks=1000, p=8, cells=4096, mirror=True, packed=True
        )


class TestGetModel:
    def test_model_is_unscaled(self):
        model = get_model()
        assert model.scale_scalar == 1.0
        assert model.scale_vector == 1.0

    def test_memoized_per_process(self):
        assert get_model() is get_model()

    def test_set_model_seam(self):
        sentinel = DispatchModel(scale_scalar=42.0)
        set_model(sentinel)
        assert get_model() is sentinel


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector programs need numpy")
class TestWhoAsks:
    """Only an installed vector program puts a window to the model."""

    @pytest.mark.parametrize("algorithm, kinds", [
        (TrivialAssignment, {"trivial"}),
        (AlgorithmW, {"W"}),
        (AlgorithmX, set()),
        (AlgorithmV, set()),
        (AlgorithmVX, set()),
    ], ids=["trivial", "W", "X", "V", "VX"])
    def test_auto_lane_asks_for_its_vector_program_only(
            self, monkeypatch, algorithm, kinds):
        # The lane matrix's sched-sparse schedule, so each run has
        # quiet windows between fail/restart pairs: trivial and W ask
        # for their own row, X, V and VX (no vector program) never ask.
        asked = []
        real = DispatchModel.prefer_vector

        def prefer_vector(model, kind, *args, **kwargs):
            asked.append(kind)
            return real(model, kind, *args, **kwargs)

        monkeypatch.setattr(DispatchModel, "prefer_vector", prefer_vector)
        result = solve_write_all(
            algorithm(), 1024, 8,
            adversary=registry.build("sched-sparse", seed=0, victims=8),
            **LANES["auto"].solver_kwargs(),
        )
        assert result.solved
        assert result.pattern_size > 0
        assert set(asked) == kinds
