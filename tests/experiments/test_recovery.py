"""Crash-safe recovery: dead workers, poison points, kill -9 resume.

These are the failure-path counterparts to the differential tests in
``test_parallel_engine.py``: a broken process pool, a point that kills
every worker it touches, repeated pool death, and a sweep process
SIGKILL'd mid-run must all leave the engine able to finish — and finish
bit-identical to the fault-free serial runner.

Everything here spawns real processes, so the whole module is
slow-marked.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core import AlgorithmX
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments.backends import local
from repro.experiments.chaos import ChaosPolicy
from repro.faults import registry

pytestmark = pytest.mark.slow

SRC = str(Path(__file__).resolve().parents[2] / "src")


@dataclass(frozen=True)
class PoisonPoint(ChaosPolicy):
    """A policy that crashes one specific point on *every* attempt.

    Unlike the stock rates, this ignores ``max_faults_per_point`` for
    the target, modelling a genuinely poisonous input that must end up
    quarantined rather than retried forever.  Module-level so it pickles
    into pool workers.
    """

    target: int = 0

    def plan(self, index, attempt):
        return "crash" if index == self.target else None

    def perturb(self, index, attempt):
        # Crash only after the fast pool-mates have had time to settle:
        # pool breakage charges every in-flight point a crash attempt,
        # and this test wants the poison point isolated as the only one
        # still in flight when the pool dies.
        if index == self.target:
            time.sleep(0.5)
        super().perturb(index, attempt)


@dataclass(frozen=True)
class FirstAttemptCrash(ChaosPolicy):
    """Crash one point's first attempt only; every retry runs clean."""

    target: int = 0

    def plan(self, index, attempt):
        return "crash" if index == self.target and attempt == 1 else None


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


def test_worker_death_is_recovered_bit_identical(monkeypatch):
    # Every point's first attempt kills its worker (os._exit inside the
    # pool), so the pool breaks; the engine must restart it, charge the
    # in-flight points a crash attempt, and converge on the retry.
    monkeypatch.setattr(local, "MAX_POOL_RESTARTS", 8)
    spec = small_spec("recovery-crash")
    serial = run_sweep(spec)
    policy = ChaosPolicy(seed=11, crash=1.0, max_faults_per_point=1)
    result = run_sweep_parallel(
        spec, workers=2, retries=3, chaos=policy,
        backoff_base=0.01, backoff_cap=0.1,
    )
    assert result.points == serial.points
    assert not result.failures
    assert result.stats.pool_restarts >= 1
    assert not result.stats.degraded_serial
    assert result.stats.crashes >= len(serial.points)


def test_poison_point_is_quarantined_not_fatal(monkeypatch):
    # One point crashes every worker that touches it.  After its retry
    # budget it must be quarantined as a PointFailure(kind="crash")
    # while the innocent pool-mates still complete correctly.
    monkeypatch.setattr(local, "MAX_POOL_RESTARTS", 10)
    spec = small_spec("recovery-poison")
    serial = run_sweep(spec)
    poisoned_index = 0
    result = run_sweep_parallel(
        spec, workers=2, retries=1, chaos=PoisonPoint(target=poisoned_index),
        backoff_base=0.01, backoff_cap=0.1,
    )
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.kind == "crash"
    assert failure.attempts >= 2  # original + 1 retry, both charged
    assert (failure.n, failure.p, failure.seed) == \
        list(spec.points())[poisoned_index]
    assert result.stats.failed == 1
    # The surviving points are exactly the serial results minus the
    # quarantined one.
    survivors = [
        point for index, point in enumerate(serial.points)
        if index != poisoned_index
    ]
    assert result.points == survivors


def test_crash_charges_only_the_attempts_inside_the_pool(monkeypatch):
    # Twelve points on two workers, and point 0's first attempt kills
    # its worker.  The pool holds at most two attempts per worker, so
    # the broken pool charges a crash to at most four of them; the
    # attempts still queued in the backend never reached the pool and
    # stay uncharged.
    monkeypatch.setattr(local, "MAX_POOL_RESTARTS", 8)
    workers = 2
    spec = SweepSpec(
        name="recovery-charge",
        algorithm=AlgorithmX,
        sizes=(64, 128, 256),
        processors=16,
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0, 1, 2, 3),
        max_ticks=2_000_000,
    )
    result = run_sweep_parallel(
        spec, workers=workers, retries=2, chaos=FirstAttemptCrash(target=0),
        backoff_base=0.01, backoff_cap=0.1,
    )
    assert result.points == run_sweep(spec).points
    assert not result.failures
    assert result.stats.pool_restarts >= 1
    stats = result.stats
    assert 1 <= stats.crashes <= 2 * workers * stats.pool_restarts


def test_repeated_pool_death_degrades_to_serial(monkeypatch):
    # With a restart budget of 1 and workers dying on every early
    # attempt, the engine must stop burning pools and fall back to
    # inline execution — where the injected crash surfaces as
    # ChaosCrash, is retried, and the sweep still converges.
    monkeypatch.setattr(local, "MAX_POOL_RESTARTS", 1)
    spec = small_spec("recovery-degrade")
    serial = run_sweep(spec)
    policy = ChaosPolicy(seed=13, crash=1.0, max_faults_per_point=3)
    result = run_sweep_parallel(
        spec, workers=2, retries=5, chaos=policy,
        backoff_base=0.01, backoff_cap=0.1,
    )
    assert result.stats.degraded_serial
    assert result.stats.pool_restarts >= 2
    assert result.points == serial.points
    assert not result.failures


_KILL_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
from repro.core import AlgorithmX
from repro.experiments import SweepSpec, run_sweep_parallel
from repro.experiments import parallel as parallel_module
from repro.faults import registry

real_execute = parallel_module.execute_point

def dawdling_execute(point, timeout=None):
    outcome = real_execute(point, timeout)
    time.sleep(0.25)  # widen the window so the SIGKILL lands mid-sweep
    return outcome

parallel_module.execute_point = dawdling_execute

spec = SweepSpec(
    name="recovery-kill",
    algorithm=AlgorithmX,
    sizes=(8, 16, 32),
    processors=4,
    adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
    seeds=(0, 1),
    max_ticks=200_000,
)
run_sweep_parallel(spec, workers=1, cache_dir={cache!r})
"""


def _entry_files(cache_root: Path):
    return [
        path for path in cache_root.rglob("*.json")
        if path.name != "checkpoint.json"
    ]


def test_sigkill_mid_sweep_resumes_from_checkpoint(tmp_path):
    # Start a sweep in a subprocess, SIGKILL it once at least two cache
    # entries exist, then resume in-process: only the missing points may
    # recompute, and the merged result must match the serial runner.
    spec = SweepSpec(
        name="recovery-kill",
        algorithm=AlgorithmX,
        sizes=(8, 16, 32),
        processors=4,
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0, 1),
        max_ticks=200_000,
    )
    cache_root = tmp_path / "cache"
    child = subprocess.Popen(
        [sys.executable, "-c",
         _KILL_CHILD.format(src=SRC, cache=str(cache_root))],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(_entry_files(cache_root)) >= 2:
                break
            if child.poll() is not None:
                pytest.fail(
                    "sweep child exited before it could be killed "
                    f"(code {child.returncode})"
                )
            time.sleep(0.02)
        else:
            pytest.fail("sweep child never wrote two cache entries")
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)

    total = len(list(spec.points()))
    survivors = len(_entry_files(cache_root))
    assert 2 <= survivors < total  # killed mid-run, not after the end

    # Atomic entry writes: every surviving entry parses cleanly.
    for path in _entry_files(cache_root):
        json.loads(path.read_text())

    resumed = run_sweep_parallel(spec, workers=1, cache_dir=cache_root)
    assert resumed.stats.cache_hits == survivors
    assert resumed.stats.executed == total - survivors
    assert resumed.stats.cache_corrupt == 0
    assert resumed.points == run_sweep(spec).points
