"""Adaptive lane dispatch: pick vec vs scalar per fused quiet window.

The vectorized lane wins big when windows are long and P is large
(5.6x on trivial@65536x64) but *loses* on short-window/small-P runs:
it pays a fixed per-tick array-machinery cost (mask builds, lexsort
commits) that only amortizes once ``ticks x P`` is large enough, and
a first window pays the memory mirror and the lane packing.  This
module is the calibrated cost model that is the only way into a
vector window: a per-program-kind linear model over the window's tick
budget, the running-lane count, and the residency state.  Only the
programs in ``repro.core.vector_kernels`` have rows: trivial and W.

The choice is **purely a performance decision**: both lanes are
bit-identical by the differential contract, so a wrong prediction
costs time, never correctness.  That is what makes shipping a
heuristic safe.

Calibration: ``benchmarks/calibrate_dispatch.py`` regenerates
``DEFAULT_TABLE`` by timing real solver runs on both lanes.  The
model applies it unscaled on every host, so a window's lane depends
only on the window, never on how loaded the host is when the process
starts.  Tests that need vector windows on small configurations
install a model through :func:`set_model` that prefers the vector
body everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class LaneCosts:
    """Per-program-kind cost coefficients (nanoseconds).

    ``scalar_tick_lane_ns``
        One scalar compiled quiet tick, per running lane (the fused
        kernel loop is O(P) Python dispatches per tick).
    ``vec_tick_ns``
        Fixed vector cost per tick regardless of P (mask allocation,
        lexsort/commit machinery; amortized per tick for closed-form
        burst kernels like trivial).
    ``vec_tick_lane_ns``
        Vector cost per tick per lane (the array ops proper).
    ``vec_window_ns``
        Fixed cost of materializing a window (allocation, goal count).
    ``vec_cell_ns``
        Mirror-build cost per memory cell, paid only when no resident
        window exists yet (first window of a run).
    ``vec_pack_lane_ns``
        Pack + eventual unpack cost per lane, paid when the resident
        columns are cold (flushed since the last vector window).
    """

    scalar_tick_lane_ns: float
    vec_tick_ns: float
    vec_tick_lane_ns: float
    vec_window_ns: float
    vec_cell_ns: float
    vec_pack_lane_ns: float


#: Calibrated on the repository's CI-class reference host by
#: ``benchmarks/calibrate_dispatch.py``.
DEFAULT_TABLE: Dict[str, LaneCosts] = {
    "trivial": LaneCosts(
        scalar_tick_lane_ns=593.0,
        vec_tick_ns=1_432.8,
        vec_tick_lane_ns=87.0,
        vec_window_ns=0.0,
        vec_cell_ns=22.2,
        vec_pack_lane_ns=238.6,
    ),
    "W": LaneCosts(
        scalar_tick_lane_ns=1_487.4,
        vec_tick_ns=72_749.6,
        vec_tick_lane_ns=151.1,
        vec_window_ns=0.0,
        vec_cell_ns=22.2,
        vec_pack_lane_ns=238.6,
    ),
}


class DispatchModel:
    """Predicts the faster lane for one fused quiet window.

    ``scale_scalar``/``scale_vector`` multiply the respective cost
    sides (default 1.0: the table as calibrated).
    """

    def __init__(
        self,
        table: Optional[Dict[str, LaneCosts]] = None,
        scale_scalar: float = 1.0,
        scale_vector: float = 1.0,
    ) -> None:
        self.table = dict(DEFAULT_TABLE if table is None else table)
        self.scale_scalar = scale_scalar
        self.scale_vector = scale_vector

    def prefer_vector(
        self,
        kind: str,
        ticks: int,
        p: int,
        cells: int,
        mirror: bool,
        packed: bool,
    ) -> bool:
        """Is the vector lane predicted faster for this window?

        ``ticks`` is the window's tick budget (the event horizon may
        stop it earlier — the budget is the best prediction available
        at dispatch time), ``p`` the running-lane count, ``cells`` the
        memory size, ``mirror`` whether a resident window already holds
        the memory mirror, ``packed`` whether its SoA columns are still
        warm from the previous window.  ``kind`` names the table row
        (:attr:`repro.pram.vectorized.VectorProgram.kind`).
        """
        costs = self.table[kind]
        scalar = ticks * p * costs.scalar_tick_lane_ns * self.scale_scalar
        vector = ticks * (costs.vec_tick_ns + p * costs.vec_tick_lane_ns)
        vector += costs.vec_window_ns
        if not mirror:
            vector += cells * costs.vec_cell_ns
        if not packed:
            vector += p * costs.vec_pack_lane_ns
        vector *= self.scale_vector
        return vector < scalar


_MODEL: Optional[DispatchModel] = None


def get_model() -> DispatchModel:
    """The process-wide dispatch model (memoized).

    Without numpy the question never arises: ``resolve_vectorized``
    installs no vector program.
    """
    global _MODEL
    if _MODEL is None:
        _MODEL = DispatchModel()
    return _MODEL


def set_model(model: Optional[DispatchModel]) -> None:
    """Override (or with None, reset) the process-wide model — test seam."""
    global _MODEL
    _MODEL = model
