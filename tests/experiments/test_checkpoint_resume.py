"""Checkpoint/resume and the per-point timeout guard.

The cache *is* the checkpoint: a sweep killed mid-run leaves its
completed points on disk, and the resumed run executes only the
missing ones.  The timeout guard turns a pathological point into a
recorded failure (after retries) instead of hanging the sweep.
"""

import time

import pytest

from repro.core import AlgorithmX
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments import parallel as parallel_module
from repro.experiments.cache import ResultCache
from repro.faults import registry


def resume_spec():
    return SweepSpec(
        name="resume-sweep",
        algorithm=AlgorithmX,
        sizes=(8, 16, 32),
        processors=4,
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0, 1),
        max_ticks=200_000,
    )


def test_killed_sweep_resumes_only_missing_points(tmp_path, monkeypatch):
    spec = resume_spec()
    real = parallel_module.execute_point
    executed = []

    def dies_after_three(point, timeout=None):
        if len(executed) == 3:
            raise KeyboardInterrupt  # operator hits ^C mid-sweep
        executed.append(point.index)
        return real(point, timeout)

    monkeypatch.setattr(parallel_module, "execute_point", dies_after_three)
    with pytest.raises(KeyboardInterrupt):
        run_sweep_parallel(spec, workers=1, cache_dir=tmp_path)
    assert executed == [0, 1, 2]  # three points landed before the kill

    # Resume: only the three missing points execute.
    monkeypatch.setattr(parallel_module, "execute_point", real)
    resumed = run_sweep_parallel(spec, workers=1, cache_dir=tmp_path)
    assert resumed.stats.cache_hits == 3
    assert resumed.stats.executed == 3
    assert resumed.stats.total == 6
    assert not resumed.failures

    # The resumed output is still bit-identical to a clean serial run.
    assert resumed.points == run_sweep(spec).points

    cache = ResultCache(tmp_path)
    checkpoint = cache.read_checkpoint("resume-sweep")
    assert checkpoint["done"] == checkpoint["total"] == 6


def test_resume_false_recomputes_everything(tmp_path):
    spec = resume_spec()
    run_sweep_parallel(spec, workers=1, cache_dir=tmp_path)
    rerun = run_sweep_parallel(
        spec, workers=1, cache_dir=tmp_path, resume=False
    )
    assert rerun.stats.cache_hits == 0
    assert rerun.stats.executed == 6


def test_slow_point_times_out_and_is_retried_not_hung(monkeypatch):
    spec = SweepSpec(
        name="timeout-sweep", algorithm=AlgorithmX, sizes=(8,), seeds=(0,),
    )

    def glacial(*args, **kwargs):
        time.sleep(30)  # would hang the sweep without the alarm

    monkeypatch.setattr(parallel_module, "measure_write_all", glacial)
    started = time.perf_counter()
    result = run_sweep_parallel(spec, workers=1, timeout=0.05, retries=1)
    elapsed = time.perf_counter() - started

    assert elapsed < 5.0  # the guard fired; the sweep did not hang
    assert result.points == []
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "timeout"
    assert failure.attempts == 2  # first try + one retry
    assert result.stats.timeouts == 2
    assert result.stats.retries == 1
    assert result.stats.failed == 1


def test_crashing_point_is_retried_then_succeeds(monkeypatch):
    spec = SweepSpec(
        name="flaky-sweep", algorithm=AlgorithmX, sizes=(8,), seeds=(0,),
    )
    real = parallel_module.measure_write_all
    attempts = []

    def flaky(*args, **kwargs):
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("transient worker wobble")
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel_module, "measure_write_all", flaky)
    result = run_sweep_parallel(spec, workers=1, retries=1)
    assert len(attempts) == 2
    assert len(result.points) == 1
    assert not result.failures
    assert result.stats.retries == 1
    assert result.meta[0].attempts == 2


@pytest.mark.slow
def test_timeout_guard_works_across_processes(monkeypatch):
    """A multi-process sweep with an unmeetable budget still returns."""
    spec = SweepSpec(
        name="timeout-procs",
        algorithm=AlgorithmX,
        sizes=(64, 128),
        processors=lambda n: n,
        adversary=registry.spec("random", fail=0.1, restart_prob=0.3),
        seeds=(0,),
        max_ticks=200_000,
    )
    result = run_sweep_parallel(
        spec, workers=2, timeout=1e-4, retries=0
    )
    assert result.points == []
    assert {failure.kind for failure in result.failures} == {"timeout"}
    assert result.stats.failed == 2
