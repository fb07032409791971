"""Regenerate the adaptive-dispatch cost table from real measurements.

``repro.pram.dispatch.DEFAULT_TABLE`` predicts, per fused quiet
window, whether the vectorized lane beats the scalar compiled lane.
This script derives those coefficients the honest way — by timing the
actual solver on both lanes across a (kind x N x P) grid — and prints
a paste-ready ``DEFAULT_TABLE`` block:

* ``scalar_tick_lane_ns`` — median of ``time / (ticks * P)`` over the
  scalar runs of a kind.
* ``vec_tick_ns`` / ``vec_tick_lane_ns`` — least-squares fit of the
  vector runs' per-tick time against P (the vector lanes' cost is a
  fixed per-tick array-machinery term plus a small per-lane slope).
* ``vec_window_ns`` / ``vec_cell_ns`` — fit of fresh
  :class:`VectorWindow` construction time against memory size (the
  mirror build is the O(M) part persistent windows amortize away).
* ``vec_pack_lane_ns`` — per-lane cost of ``ensure_packed`` on a cold
  window.

Run on the repository's reference host and commit the output into
``src/repro/pram/dispatch.py``; every host uses the table unscaled.

Usage::

    PYTHONPATH=src python benchmarks/calibrate_dispatch.py [--repeats K]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core import AlgorithmW, AlgorithmX, TrivialAssignment
from repro.core.runner import solve_write_all
from repro.pram.memory import SharedMemory
from repro.pram.policies import CommonCrcw
from repro.pram.vectorized import resolve_vectorized

#: kind -> (algorithm factory, (N, P) grid).  P values are spread so the
#: per-lane slope of the vector per-tick cost is identifiable.
GRID = {
    "trivial": (TrivialAssignment, [(1024, 8), (4096, 32), (65536, 64)]),
    "X": (AlgorithmX, [(512, 8), (4096, 64), (16384, 128)]),
    "W": (AlgorithmW, [(1024, 8), (4096, 64), (8192, 128)]),
}

#: Memory sizes for the window-construction fit.
WINDOW_SIZES = [1024, 16384, 65536]


def _best_solve(factory, n, p, vectorized, repeats):
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        result = solve_write_all(factory(), n, p, vectorized=vectorized)
        times.append(time.perf_counter_ns() - start)
    return min(times), result


def _ticks(result):
    return result.ledger.ticks


def calibrate_kind(kind, factory, grid, repeats):
    scalar_rates = []
    per_tick = []  # (p, vec_ns_per_tick)
    for n, p in grid:
        scalar_ns, scalar_result = _best_solve(factory, n, p, False, repeats)
        vec_ns, vec_result = _best_solve(factory, n, p, True, repeats)
        ticks = _ticks(scalar_result)
        assert ticks == _ticks(vec_result), (kind, n, p)
        scalar_rates.append(scalar_ns / (ticks * p))
        per_tick.append((p, vec_ns / ticks))
        print(
            f"  {kind}@{n}x{p}: scalar {scalar_ns / 1e6:8.2f} ms  "
            f"vec {vec_ns / 1e6:8.2f} ms  "
            f"vec/scalar {scalar_ns / vec_ns:5.2f}x  ticks={ticks}"
        )
    ps = np.asarray([p for p, _ in per_tick], dtype=float)
    ys = np.asarray([y for _, y in per_tick], dtype=float)
    slope, intercept = np.polyfit(ps, ys, 1)
    return {
        "scalar_tick_lane_ns": statistics.median(scalar_rates),
        "vec_tick_ns": max(intercept, 0.0),
        "vec_tick_lane_ns": max(slope, 0.0),
    }


def calibrate_window(repeats):
    """Fit window construction (mirror build) and lane packing costs."""
    algorithm = TrivialAssignment()
    build = []  # (cells, best ns)
    pack_rates = []
    p = 64
    for m in WINDOW_SIZES:
        layout = algorithm.build_layout(m, p)
        program = resolve_vectorized(algorithm, layout, None, vectorized=True)
        memory = SharedMemory(layout.size)
        for pid in range(p):  # materialize the scalar kernels packing reads
            program.pid_stepper(pid)
        times, packs = [], []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            window = program.begin_window(memory, CommonCrcw(), goal=None)
            times.append(time.perf_counter_ns() - start)
            start = time.perf_counter_ns()
            program.ensure_packed(window, range(p))
            packs.append(time.perf_counter_ns() - start)
            window.close()
        build.append((layout.size, min(times)))
        pack_rates.append(min(packs) / p)
    sizes = np.asarray([m for m, _ in build], dtype=float)
    ys = np.asarray([y for _, y in build], dtype=float)
    cell, fixed = np.polyfit(sizes, ys, 1)
    return {
        "vec_window_ns": max(fixed, 0.0),
        "vec_cell_ns": max(cell, 0.0),
        "vec_pack_lane_ns": statistics.median(pack_rates),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per configuration (min wins)")
    args = parser.parse_args()

    window = calibrate_window(args.repeats)
    rows = {}
    for kind, (factory, grid) in GRID.items():
        print(f"{kind}:")
        rows[kind] = {**calibrate_kind(kind, factory, grid, args.repeats),
                      **window}

    print("\n# --- paste into src/repro/pram/dispatch.py ---")
    print("DEFAULT_TABLE: Dict[str, LaneCosts] = {")
    for kind in [*rows, "generic"]:
        # Unknown vector programs get the X row: the most vec-hostile
        # measured kind, so auto only dispatches vec when clearly ahead.
        row = rows.get(kind, rows["X"])
        print(f'    "{kind}": LaneCosts(')
        for field, value in row.items():
            print(f"        {field}={value:_.1f},")
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
