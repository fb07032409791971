"""Worker-count conformance: one engine, inline or on a pool.

The engine's promise is that where a point runs is unobservable in the
output — ``run_sweep_parallel(spec, workers=w).points`` must be
bit-identical to the serial runner for every worker count ``w``, and
the failure paths (crash quarantine, per-point timeout) must classify
the same way whether a point dies inline or in a pool worker.  Every
test here runs with ``workers=1`` (inline) and ``workers=2`` (a process
pool); the pool legs spawn real worker processes, so they carry the
``slow`` marker.
"""

import time
from dataclasses import dataclass

import pytest

from repro.core import AlgorithmX
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments.backends import local
from repro.experiments.chaos import ChaosPolicy
from repro.faults import registry

WORKERS = [
    pytest.param(1, id="inline"),
    pytest.param(2, id="pool", marks=pytest.mark.slow),
]


@dataclass(frozen=True)
class PoisonPoint(ChaosPolicy):
    """Crash one point on every attempt, ignoring the fault budget.

    The pre-crash sleep lets pool-mates drain first: a broken local
    pool charges every in-flight point a crash attempt, and these tests
    want the poison isolated as the only casualty.
    """

    target: int = 0

    def plan(self, index, attempt):
        return "crash" if index == self.target else None

    def perturb(self, index, attempt):
        if index == self.target:
            time.sleep(0.5)
        super().perturb(index, attempt)


@dataclass(frozen=True)
class StallPoint(ChaosPolicy):
    """Stall one point past any reasonable per-point timeout, always."""

    target: int = 0

    def plan(self, index, attempt):
        return "stall" if index == self.target else None


def small_spec(name):
    return SweepSpec(
        name=name,
        algorithm=AlgorithmX,
        sizes=(8, 16),
        processors=4,
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0, 1),
        max_ticks=200_000,
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_bit_identical_to_serial_runner(workers):
    spec = small_spec(f"conf-ident-{workers}")
    serial = run_sweep(spec)
    result = run_sweep_parallel(spec, workers=workers)
    assert result.points == serial.points
    assert not result.failures
    assert result.stats.executed == len(serial.points)
    assert result.stats.cache_hits == 0


@pytest.mark.parametrize("workers", WORKERS)
def test_crash_is_quarantined_not_fatal(workers, monkeypatch):
    # The poison point must end as PointFailure(kind="crash") after its
    # retry budget — whether the crash is an inline ChaosCrash or a dead
    # pool worker — and the innocent points must still match the serial
    # runner.  On the pool leg this is the crash-isolation check: the
    # injected os._exit kills a worker, never the driving process.
    monkeypatch.setattr(local, "MAX_POOL_RESTARTS", 10)
    spec = small_spec(f"conf-poison-{workers}")
    serial = run_sweep(spec)
    result = run_sweep_parallel(
        spec, workers=workers, retries=1, chaos=PoisonPoint(target=0),
        backoff_base=0.01, backoff_cap=0.1,
    )
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "crash"
    assert failure.attempts >= 2
    assert result.stats.failed == 1
    assert result.points == serial.points[1:]


@pytest.mark.parametrize("workers", WORKERS)
def test_timeout_classifies_as_timeout(workers):
    # A point stalled past the per-point deadline must quarantine as
    # kind="timeout" (never "crash" or a hang) inline and on the pool.
    spec = small_spec(f"conf-stall-{workers}")
    serial = run_sweep(spec)
    result = run_sweep_parallel(
        spec, workers=workers, timeout=0.5, retries=0,
        chaos=StallPoint(target=0, stall_s=30.0),
    )
    assert len(result.failures) == 1
    assert result.failures[0].kind == "timeout"
    assert result.points == serial.points[1:]


@pytest.mark.parametrize("workers", WORKERS)
def test_cache_replays_without_building_a_pool(workers, tmp_path,
                                               monkeypatch):
    # Second run against the same cache dir must be all hits, so it
    # runs nothing and builds no pool.
    spec = small_spec(f"conf-cache-{workers}")
    first = run_sweep_parallel(spec, workers=workers,
                               cache_dir=tmp_path / "cache")
    built = []
    real_init = local.PoolBackend.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(local.PoolBackend, "__init__", counting_init)
    second = run_sweep_parallel(spec, workers=workers,
                                cache_dir=tmp_path / "cache")
    assert built == []
    assert second.points == first.points
    assert second.stats.cache_hits == second.stats.total
    assert second.stats.executed == 0
    assert all(meta.cached for meta in second.meta)


def batch_specs(tag):
    """Three sweeps; the first and last share the keys of N=16."""
    churn = dict(
        name=f"conf-batch-{tag}", algorithm=AlgorithmX, processors=4,
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0, 1), max_ticks=200_000,
    )
    return [
        SweepSpec(sizes=(8, 16), **churn),
        SweepSpec(name=f"conf-batch-{tag}-free", algorithm=AlgorithmX,
                  sizes=(8,), processors=4, adversary=registry.spec("none"),
                  seeds=(0, 1)),
        SweepSpec(sizes=(16, 32), **churn),
    ]


@pytest.mark.parametrize("workers", WORKERS)
def test_batch_matches_sequential_calls(workers, tmp_path):
    # A batch is one engine run, but every sweep must come back as if
    # run alone: the serial runner's points, and into a fresh cache the
    # executed/hit split of sequential calls — the shared keys execute
    # once and read as hits in the later sweep.
    specs = batch_specs(workers)
    sequential = [
        run_sweep_parallel(spec, workers=1, cache_dir=tmp_path / "seq")
        for spec in specs
    ]
    batch = run_sweep_parallel(specs, workers=workers,
                               cache_dir=tmp_path / "batch")
    assert len(batch) == len(specs)
    for spec, result, alone in zip(specs, batch, sequential):
        assert result.spec is spec
        assert result.points == run_sweep(spec).points
        assert not result.failures
        assert (result.stats.executed, result.stats.cache_hits) == \
            (alone.stats.executed, alone.stats.cache_hits)
    assert [result.stats.cache_hits for result in batch] == [0, 0, 2]
    # Without resume nothing is looked up, so both copies execute.
    again = run_sweep_parallel(specs, workers=workers,
                               cache_dir=tmp_path / "batch", resume=False)
    for spec, result in zip(specs, again):
        assert result.points == run_sweep(spec).points
        assert result.stats.executed == len(list(spec.points()))
        assert result.stats.cache_hits == 0
