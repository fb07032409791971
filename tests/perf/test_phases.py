"""Phase counters: the tick accounting the end-to-end benchmark reads.

``benchmarks/e2e`` hands a :class:`~repro.perf.phases.PhaseCounters`
to every traced ``solve`` op and reads its six fields: the seconds of
the four tick phases of the observable ticks, ``ticks`` and
``fused_ticks``.  These tests hold every lane to what that attribution
rests on: the counters account for every tick of the run, quiet-window
ticks are counted fused rather than timed one by one, the reference
lane stays free of timing hooks, and asking for counters changes no
model field.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import (
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    TrivialAssignment,
)
from repro.core.runner import solve_write_all
from repro.experiments.factories import SparseSchedule
from repro.perf.phases import PhaseCounters
from repro.pram.lanes import LANES, lane_available

ALGORITHMS = {
    "trivial": TrivialAssignment, "W": AlgorithmW, "X": AlgorithmX,
    "V": AlgorithmV, "VX": AlgorithmVX,
}

#: The lanes that run the fast path, the only instrumented one.
FAST_PATH_LANES = [name for name, lane in LANES.items() if lane.fast_path]


def solve(algorithm, lane, phase_counters=None):
    # The lane matrix's sched-sparse schedule: eight fail/restart pairs
    # 400 ticks apart, so a run has observable ticks and quiet windows.
    return solve_write_all(
        ALGORITHMS[algorithm](), 1024, 8,
        adversary=SparseSchedule(victims=8)(0),
        phase_counters=phase_counters, **LANES[lane].solver_kwargs(),
    )


def model(result):
    return (result.solved, result.completed_work, result.charged_work,
            result.pattern_size, result.ledger.ticks)


def test_the_six_fields_the_benchmark_reads():
    assert [field.name for field in fields(PhaseCounters)] == [
        "collect_s", "adversary_s", "resolve_s", "settle_s",
        "ticks", "fused_ticks",
    ]
    assert PhaseCounters() == PhaseCounters(0.0, 0.0, 0.0, 0.0, 0, 0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("lane", FAST_PATH_LANES)
def test_counters_account_for_every_tick(lane, algorithm):
    if not lane_available(lane):
        pytest.skip("the vec lane needs the numpy extra")
    phases = PhaseCounters()
    result = solve(algorithm, lane, phases)
    assert result.solved
    assert result.pattern_size > 0
    assert phases.ticks > 0
    assert phases.ticks + phases.fused_ticks == result.ledger.ticks
    if LANES[lane].fast_forward:
        assert phases.fused_ticks > 0
    else:
        assert phases.fused_ticks == 0
    seconds = (phases.collect_s, phases.adversary_s, phases.resolve_s,
               phases.settle_s)
    assert min(seconds) >= 0.0
    assert sum(seconds) > 0.0
    assert model(result) == model(solve(algorithm, lane))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_reference_lane_is_not_instrumented(algorithm):
    phases = PhaseCounters()
    result = solve(algorithm, "reference", phases)
    assert phases == PhaseCounters()
    assert result.solved
    assert model(result) == model(solve(algorithm, "reference"))
