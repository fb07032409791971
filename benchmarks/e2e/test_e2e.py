"""Tests for the e2e benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads  # noqa: I001 - puts the library's src/ on sys.path
from compare import verdict
from repro.pram.errors import WriteConflictError
from spans import DispatchTally, Tracer

HERE = Path(__file__).resolve().parent


# --------------------------------------------------------------------- #
# tracing must not change what the machine does
# --------------------------------------------------------------------- #

#: One op per workload (two for quiet), crossing every lane the
#: wrappers touch: horizons and kernel windows, the vector lane, per-tick
#: step + decide, short generator-lane phases, the sweep engine.
TRACED_OPS = [
    ("quiet", "X@sched-sparse"),
    ("quiet", "W@none"),
    ("dense", "VX@stalker"),
    ("simulate", "prefix-sum"),
    ("reproduce", None),
]


def _op(workload: str, name) -> workloads.Op:
    smoke = workload == "reproduce"
    ops = workloads.build_ops(workload, 0, smoke)
    return ops[0] if name is None else next(op for op in ops if op.name == name)


def _run(op: workloads.Op, scratch: str, traced: bool):
    from repro.perf.phases import PhaseCounters

    tally = DispatchTally()
    tally.install()
    tracer = Tracer()
    if traced:
        tracer.install()
        tracer.enabled = True
    counters = PhaseCounters() if op.kind == "solve" else None
    try:
        outcome = workloads.run_op(op, scratch, counters)
    finally:
        tracer.enabled = False
        tracer.uninstall()
        tally.uninstall()
    fused = None if counters is None else counters.fused_ticks
    return workloads.model_fields(outcome), fused, tally.decisions, tracer


@pytest.fixture
def unscaled_dispatch():
    """Lanes chosen as in the harness: by the unscaled cost model."""
    from repro.pram.dispatch import DispatchModel, set_model

    set_model(DispatchModel())
    yield
    set_model(None)


@pytest.mark.parametrize("workload,name", TRACED_OPS)
def test_traced_run_takes_the_same_decisions(workload, name, tmp_path,
                                             unscaled_dispatch):
    op = _op(workload, name)
    plain = _run(op, str(tmp_path), traced=False)
    traced = _run(op, str(tmp_path), traced=True)
    assert traced[:3] == plain[:3]
    tracer = traced[3]
    assert tracer.attributed_s() > 0
    if op.kind == "solve":
        assert tracer.calls("pram.Machine.run") == 1
    if workload == "quiet":
        assert plain[1] > 0, "quiet ticks should fuse"
    if workload == "dense":
        assert plain[1] == 0 and tracer.calls("faults.decide") > 0
    if name == "W@none":
        assert True in plain[2], "the vector lane should run"
        assert tracer.calls("pram.vec.run_quiet") > 0


def test_wrappers_are_removed(tmp_path):
    from repro.pram.machine import Machine

    before = dict(vars(Machine))
    tracer = Tracer()
    tracer.install()
    assert vars(Machine)["step"] is not before["step"]
    tracer.uninstall()
    assert dict(vars(Machine)) == before


# --------------------------------------------------------------------- #
# comparator
# --------------------------------------------------------------------- #

def _pairs(parent, change):
    return list(zip(parent, change))


def test_verdict_improved_needs_ten_winning_pairs():
    parent = [1.00, 1.02, 0.99, 1.01, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]
    change = [value * 0.8 for value in parent]
    assert verdict(parent, change, _pairs(parent, change), "lower", 0.1) == "improved"
    # Nine pairs cannot establish a gain; the change is still no worse.
    assert verdict(parent[:9], change[:9], _pairs(parent[:9], change[:9]),
                   "lower", 0.1) == "unchanged"


def test_verdict_unchanged_and_worse():
    parent = [1.00, 1.02, 0.99, 1.01, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]
    same = list(reversed(parent))
    assert verdict(parent, same, _pairs(parent, same), "lower", 0.1) == "unchanged"
    slower = [value * 1.3 for value in parent]
    assert verdict(parent, slower, _pairs(parent, slower), "lower", 0.1) == "worse"
    # For a higher-is-better metric the same numbers are a gain.
    assert verdict(parent, slower, _pairs(parent, slower), "higher", 0.1) == "improved"


def test_verdict_unresolved_when_spread_exceeds_bound():
    parent = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    change = [value * 1.05 for value in parent]
    assert verdict(parent, change, _pairs(parent, change), "lower", 0.1) == "unresolved"
    # ... unless every change run beats every parent run.
    faster = [value * 0.4 for value in parent[:9]]
    assert verdict(parent[:9], faster, _pairs(parent, faster), "lower",
                   0.1) == "unchanged"
    # Too few runs to judge at all.
    assert verdict([1.0, 1.0], [1.0, 1.0], [(1.0, 1.0)] * 2, "lower", 0.1) == "unresolved"


# --------------------------------------------------------------------- #
# the runner end to end
# --------------------------------------------------------------------- #

def test_smoke_run_finishes_every_workload(tmp_path):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in workloads.WORKLOADS:
        for metric in ("pass_s", "cycles_per_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][f"{workload}.{metric}"]["value"] > 0
    assert elapsed < 30


# --------------------------------------------------------------------- #
# known exclusions, pinned so they are revisited once fixed
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("lane", ["auto", "reference"])
@pytest.mark.xfail(
    strict=True,
    raises=WriteConflictError,
    reason="VX breaks COMMON CRCW once the failure budget runs out under "
           "churn (WriteConflictError at cell 210); see README: exclusions",
)
def test_vx_budgeted_churn_keeps_common_crcw(lane):
    from repro.core import AlgorithmVX
    from repro.core.runner import solve_write_all
    from repro.faults import FailureBudgetAdversary, RandomAdversary

    adversary = FailureBudgetAdversary(RandomAdversary(0.05, 0.4, seed=2), 64)
    if lane == "reference":
        result = solve_write_all(
            AlgorithmVX(), 64, 4, adversary=adversary,
            fast_path=False, fast_forward=False, compiled=False,
        )
    else:
        result = solve_write_all(
            AlgorithmVX(), 64, 4, adversary=adversary, vectorized="auto",
        )
    assert result.solved
