"""The chaos subsystem: deterministic injection, containment, healing.

The policy's draws are pure functions of (seed, point index, attempt),
so injection schedules are reproducible across workers, resumes and
call orders — the property every convergence assertion here leans on.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import AlgorithmX
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments.chaos import (
    ChaosCrash,
    ChaosPolicy,
    ensure_coverage,
    run_soak,
)
from repro.faults import registry


def small_spec(name="chaos-test"):
    return SweepSpec(
        name=name,
        algorithm=AlgorithmX,
        sizes=(8, 16),
        processors=4,
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0, 1),
        max_ticks=200_000,
    )


def test_plan_is_deterministic_and_order_independent():
    policy = ChaosPolicy(seed=7, crash=0.2, stall=0.2, error=0.2)
    forward = [policy.plan(index, 1) for index in range(32)]
    backward = [policy.plan(index, 1) for index in reversed(range(32))]
    assert forward == list(reversed(backward))
    # A fresh policy with the same seed sees the same schedule; there
    # is no hidden stream to keep in sync.
    again = ChaosPolicy(seed=7, crash=0.2, stall=0.2, error=0.2)
    assert [again.plan(index, 1) for index in range(32)] == forward


def _schedule_digest(policy):
    """A short sha256 of the policy's plan and corruption draws."""
    schedule = [
        [policy.plan(index, attempt)
         for index in range(256) for attempt in (1, 2, 3)],
        [policy.corrupts(index) for index in range(256)],
    ]
    return hashlib.sha256(json.dumps(schedule).encode()).hexdigest()[:16]


@pytest.mark.parametrize("policy, digest", [
    # The `repro chaos` soak rates.
    (ChaosPolicy(seed=0, crash=0.15, stall=0.10, error=0.10, corrupt=0.25),
     "d58d87c610128dca"),
    # The inline-chaos rates of `repro fuzz`.
    (ChaosPolicy(seed=7, crash=0.02, stall=0.01, error=0.02),
     "8c90509c16e7851b"),
])
def test_schedules_are_pinned(policy, digest):
    # Every soak's faults follow from these draws: changing a rate
    # threshold or reordering EXEC_KINDS would silently re-seed them.
    assert _schedule_digest(policy) == digest


def test_injection_stops_after_the_per_point_cap():
    policy = ChaosPolicy(seed=0, error=1.0, max_faults_per_point=2)
    assert policy.plan(3, 1) == "error"
    assert policy.plan(3, 2) == "error"
    assert policy.plan(3, 3) is None  # convergence guarantee


def test_injected_transient_errors_are_retried_to_convergence():
    spec = small_spec()
    serial = run_sweep(spec)
    policy = ChaosPolicy(seed=1, error=1.0, max_faults_per_point=1)
    result = run_sweep_parallel(spec, workers=1, retries=2, chaos=policy)
    assert result.points == serial.points
    assert not result.failures
    assert result.stats.injected == {"error": 4}
    assert result.stats.retries == 4
    assert all(meta.attempts == 2 for meta in result.meta)


def test_inline_injected_crash_is_contained_not_fatal():
    # Inline there is no worker process to kill; the crash surfaces as
    # ChaosCrash, is accounted with kind="crash", and is retried.
    spec = small_spec()
    policy = ChaosPolicy(seed=2, crash=1.0, max_faults_per_point=1)
    result = run_sweep_parallel(spec, workers=1, retries=2, chaos=policy)
    assert result.points == run_sweep(spec).points
    assert not result.failures
    assert result.stats.crashes == 4
    assert result.stats.injected == {"crash": 4}


def test_perturb_raises_chaos_crash_outside_a_worker():
    policy = ChaosPolicy(seed=2, crash=1.0, max_faults_per_point=1)
    with pytest.raises(ChaosCrash):
        policy.perturb(0, 1)


def test_injected_stall_trips_the_timeout_guard():
    spec = SweepSpec(
        name="chaos-stall", algorithm=AlgorithmX, sizes=(8,),
        processors=4,
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0,),
        max_ticks=200_000,
    )
    policy = ChaosPolicy(
        seed=3, stall=1.0, stall_s=30.0, max_faults_per_point=1,
    )
    result = run_sweep_parallel(
        spec, workers=1, timeout=0.1, retries=2, chaos=policy,
    )
    assert result.points == run_sweep(spec).points
    assert not result.failures
    assert result.stats.timeouts == 1
    assert result.stats.injected == {"stall": 1}


def test_corruption_is_injected_detected_and_healed(tmp_path):
    spec = small_spec("chaos-corrupt")
    serial = run_sweep(spec)
    policy = ChaosPolicy(seed=4, corrupt=1.0)
    stormy = run_sweep_parallel(
        spec, workers=1, cache_dir=tmp_path, chaos=policy,
    )
    assert stormy.points == serial.points  # in-memory results untouched
    assert stormy.stats.injected == {"corrupt": 4}

    healed = run_sweep_parallel(spec, workers=1, cache_dir=tmp_path)
    assert healed.points == serial.points
    assert healed.stats.cache_corrupt == 4  # every entry was corrupted
    assert healed.stats.executed == 4       # ...and recomputed
    assert healed.stats.cache_hits == 0

    # The heal is durable: a third run is served entirely from cache.
    warm = run_sweep_parallel(spec, workers=1, cache_dir=tmp_path)
    assert warm.stats.cache_hits == 4
    assert warm.points == serial.points


def test_corrupt_entry_exercises_both_modes(tmp_path):
    # The mode draw depends on (seed, file name); over a few seeds both
    # corruption flavours must appear, and both must change the bytes.
    victim = tmp_path / "entry.json"
    payload = json.dumps({"version": 1, "point": {"n": 8, "s": 12345}})
    modes = set()
    for seed in range(64):
        victim.write_text(payload)
        mode = ChaosPolicy(seed=seed).corrupt_entry(victim)
        assert victim.read_text() != payload
        modes.add(mode)
        if modes == {"truncate", "bitflip"}:
            break
    assert modes == {"truncate", "bitflip"}


def test_ensure_coverage_walks_seeds_until_plan_covers():
    policy = ensure_coverage(
        0, 16, crash=0.15, stall=0.10, error=0.10, corrupt=0.25,
    )
    planned = policy.planned(16)
    for kind in ("crash", "stall", "corrupt"):
        assert planned.get(kind, 0) > 0
    # Deterministic: the same walk lands on the same seed.
    assert ensure_coverage(
        0, 16, crash=0.15, stall=0.10, error=0.10, corrupt=0.25,
    ).seed == policy.seed


def test_policy_is_picklable_and_frozen():
    import pickle

    policy = ChaosPolicy(seed=5, crash=0.1)
    assert pickle.loads(pickle.dumps(policy)) == policy
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.seed = 6


@pytest.mark.slow
def test_soak_converges_under_crashes_stalls_and_corruption():
    """The acceptance soak: ≥1 crash, ≥1 stall, ≥1 corrupted entry over
    a 16-point sweep; parallel results bit-identical to fault-free
    serial, every injected fault recorded, corruption healed on resume.
    """
    outcome = run_soak(workers=2, chaos_seed=0, timeout=1.0, retries=8)
    assert outcome.converged, outcome.summary()
    assert outcome.injected.get("crash", 0) >= 1
    assert outcome.injected.get("stall", 0) >= 1
    assert outcome.injected.get("corrupt", 0) >= 1
    assert outcome.healed_corruptions == outcome.injected["corrupt"]
