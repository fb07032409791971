"""Backend conformance: one contract, two executors.

The engine's promise is that the executor seam is unobservable in the
output — ``run_sweep_parallel(spec, backend=b).points`` must be
bit-identical to the serial runner for every backend ``b``, and the
failure paths (crash quarantine, per-point timeout) must classify the
same way whether a point dies inline or in a pool worker.  Every test
here is parametrized over both; the pool legs spawn real worker
processes, so they carry the ``slow`` marker.
"""

import time
from dataclasses import dataclass

import pytest

from repro.core import AlgorithmX
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments.backends import resolve_backend
from repro.experiments.chaos import ChaosPolicy
from repro.faults import registry

BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("pool", id="pool", marks=pytest.mark.slow),
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


def run_with(backend_name, spec, tmp_path, **kwargs):
    """Run one sweep through the named backend."""
    workers = 2 if backend_name == "pool" else 1
    return run_sweep_parallel(
        spec, backend=backend_name, workers=workers, **kwargs,
    )


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


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_bit_identical_to_serial_runner(backend_name, tmp_path):
    spec = small_spec(f"conf-ident-{backend_name}")
    serial = run_sweep(spec)
    result = run_with(backend_name, spec, tmp_path)
    assert result.points == serial.points
    assert not result.failures
    assert result.stats.executed == len(serial.points)
    assert result.stats.cache_hits == 0


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_crash_is_quarantined_not_fatal(backend_name, tmp_path):
    # The poison point must end as PointFailure(kind="crash") after its
    # retry budget — whether the crash is an inline ChaosCrash or a dead
    # pool worker — and the innocent points must still match the serial
    # runner.  On the pool leg this is the crash-isolation check: the
    # injected os._exit kills a worker, never the driving process.
    spec = small_spec(f"conf-poison-{backend_name}")
    serial = run_sweep(spec)
    result = run_with(
        backend_name, spec, tmp_path,
        retries=1, chaos=PoisonPoint(target=0),
        max_pool_restarts=10, backoff_base=0.01, backoff_cap=0.1,
    )
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "crash"
    assert failure.attempts >= 2
    assert result.stats.quarantined == 1
    assert result.points == serial.points[1:]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_timeout_classifies_as_timeout(backend_name, tmp_path):
    # A point stalled past the per-point deadline must quarantine as
    # kind="timeout" (never "crash" or a hang) on every executor.
    spec = small_spec(f"conf-stall-{backend_name}")
    serial = run_sweep(spec)
    result = run_with(
        backend_name, spec, tmp_path,
        timeout=0.5, retries=0, chaos=StallPoint(target=0, stall_s=30.0),
        max_pool_restarts=10, backoff_base=0.01, backoff_cap=0.1,
    )
    assert len(result.failures) == 1
    assert result.failures[0].kind == "timeout"
    assert result.points == serial.points[1:]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_client_cache_replays_without_touching_backend(
    backend_name, tmp_path,
):
    # Second run against the same client-side cache dir must be all
    # hits; the backend never sees a submit.
    spec = small_spec(f"conf-cache-{backend_name}")
    first = run_with(backend_name, spec, tmp_path,
                     cache_dir=tmp_path / "client-cache")
    second = run_with(backend_name, spec, tmp_path,
                      cache_dir=tmp_path / "client-cache")
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


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_batch_matches_sequential_calls(backend_name, tmp_path):
    # A batch is one engine run, but every sweep must come back as if
    # run alone: the serial runner's points, and into a fresh cache the
    # executed/hit split of sequential calls — the shared keys execute
    # once and read as hits in the later sweep.
    specs = batch_specs(backend_name)
    sequential = [
        run_sweep_parallel(spec, workers=1, cache_dir=tmp_path / "seq")
        for spec in specs
    ]
    batch = run_with(backend_name, specs, tmp_path,
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
    again = run_with(backend_name, specs, tmp_path,
                     cache_dir=tmp_path / "batch", resume=False)
    for spec, result in zip(specs, again):
        assert result.points == run_sweep(spec).points
        assert result.stats.executed == len(list(spec.points()))
        assert result.stats.cache_hits == 0


def test_capability_flags_are_coherent():
    serial, _ = resolve_backend("serial", workers=1)
    pool, _ = resolve_backend("pool", workers=2)
    try:
        assert not serial.requires_picklable
        assert pool.requires_picklable
    finally:
        serial.close()
        pool.close()
