"""Result cache behavior: cold, warm, and corrupted entries.

Execution counting monkeypatches ``execute_point`` in the engine
module, which the inline (workers<=1) path calls by name — that is why
these tests run inline.
"""

import functools
import json

import pytest

from repro.core import AlgorithmV, AlgorithmX
from repro.experiments import (
    ResultCache,
    SweepSpec,
    fingerprint,
    point_key,
    run_sweep_parallel,
)
from repro.experiments import parallel as parallel_module
from repro.faults import RandomAdversary, registry


def counting_execute(monkeypatch):
    """Route the engine through a call-counting execute_point."""
    calls = []
    real = parallel_module.execute_point

    def spy(point, timeout=None):
        calls.append(point.index)
        return real(point, timeout)

    monkeypatch.setattr(parallel_module, "execute_point", spy)
    return calls


def cache_spec():
    return SweepSpec(
        name="cache-behavior",
        algorithm=AlgorithmX,
        sizes=(8, 16),
        processors=4,
        adversary=registry.spec("random", fail=0.2, restart_prob=0.5),
        seeds=(0, 1),
        max_ticks=200_000,
    )


def entry_files(cache_dir):
    return sorted(
        path for path in cache_dir.rglob("*.json")
        if path.name != "checkpoint.json"
    )


def test_cold_run_populates_cache(tmp_path, monkeypatch):
    calls = counting_execute(monkeypatch)
    result = run_sweep_parallel(cache_spec(), workers=1, cache_dir=tmp_path)
    assert len(calls) == result.stats.total == 4
    assert result.stats.executed == 4
    assert result.stats.cache_hits == 0
    assert len(entry_files(tmp_path)) == 4


def test_warm_run_is_all_hits_with_zero_executions(tmp_path, monkeypatch):
    cold = run_sweep_parallel(cache_spec(), workers=1, cache_dir=tmp_path)
    calls = counting_execute(monkeypatch)
    warm = run_sweep_parallel(cache_spec(), workers=1, cache_dir=tmp_path)
    assert calls == []  # nothing executed at all
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == warm.stats.total == 4
    assert warm.stats.hit_rate == 1.0
    assert warm.points == cold.points  # cached results are bit-identical


def test_corrupted_entry_is_detected_and_recomputed(tmp_path, monkeypatch):
    cold = run_sweep_parallel(cache_spec(), workers=1, cache_dir=tmp_path)
    victim = entry_files(tmp_path)[0]
    victim.write_text("{ not json at all")

    calls = counting_execute(monkeypatch)
    warm = run_sweep_parallel(cache_spec(), workers=1, cache_dir=tmp_path)
    assert len(calls) == 1  # only the corrupted point recomputed
    assert warm.stats.executed == 1
    assert warm.stats.cache_hits == 3
    assert warm.points == cold.points
    # The rewritten entry is valid again.
    assert json.loads(victim.read_text())["version"] == 1


def test_truncated_entry_is_detected_and_recomputed(tmp_path, monkeypatch):
    cold = run_sweep_parallel(cache_spec(), workers=1, cache_dir=tmp_path)
    victim = entry_files(tmp_path)[0]
    # Simulate a kill mid-write on a non-atomic filesystem: half a file.
    victim.write_text(victim.read_text()[: len(victim.read_text()) // 2])

    warm = run_sweep_parallel(cache_spec(), workers=1, cache_dir=tmp_path)
    assert warm.stats.executed == 1
    assert warm.stats.cache_hits == 3
    assert warm.points == cold.points


def test_load_discards_mismatched_key(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep_parallel(cache_spec(), workers=1, cache=cache)
    victim = entry_files(tmp_path)[0]
    payload = json.loads(victim.read_text())
    key = victim.name[: -len(".json")]
    payload["key"] = "0" * 64  # entry claims to be some other point
    victim.write_text(json.dumps(payload))
    assert cache.load("cache-behavior", key) is None
    assert not victim.exists()  # discarded, cannot shadow a good write


def test_bitflipped_measure_is_caught_by_checksum(tmp_path, monkeypatch):
    # A flipped digit inside a stored measure still parses as JSON and
    # still carries the right version and key — only the entry checksum
    # can catch it.
    cache = ResultCache(tmp_path)
    cold = run_sweep_parallel(cache_spec(), workers=1, cache=cache)
    victim = entry_files(tmp_path)[0]
    payload = json.loads(victim.read_text())
    field, value = next(
        (name, value) for name, value in sorted(payload["point"].items())
        if isinstance(value, int) and value > 0
    )
    payload["point"][field] = value + 1
    victim.write_text(json.dumps(payload))

    calls = counting_execute(monkeypatch)
    warm = run_sweep_parallel(cache_spec(), workers=1, cache=cache)
    assert len(calls) == 1  # only the tampered point recomputed
    assert warm.stats.cache_hits == 3
    assert warm.stats.cache_corrupt == 1
    assert warm.points == cold.points  # the lie did not reach results


def test_entry_without_schema_or_checksum_is_recomputed(tmp_path):
    # Without a schema and a checksum nothing binds a point to its key:
    # an entry stripped of both, with its point edited, must not load.
    cache = ResultCache(tmp_path)
    cold = run_sweep_parallel(cache_spec(), workers=1, cache=cache)
    victim = entry_files(tmp_path)[0]
    payload = json.loads(victim.read_text())
    for field in ("schema", "checksum"):
        del payload[field]
    payload["point"]["completed_work"] += 1
    victim.write_text(json.dumps(payload))

    key = victim.name[: -len(".json")]
    assert cache.load("cache-behavior", key) is None
    assert cache.corrupt_discarded == 1
    assert not victim.exists()

    warm = run_sweep_parallel(cache_spec(), workers=1, cache=cache)
    assert warm.stats.executed == 1
    assert warm.stats.cache_hits == 3
    assert [point.completed_work for point in warm.points] == [
        point.completed_work for point in cold.points
    ]


def test_corrupt_discarded_counts_every_discard(tmp_path):
    cache = ResultCache(tmp_path)
    run_sweep_parallel(cache_spec(), workers=1, cache=cache)
    first, second = entry_files(tmp_path)[:2]
    first.write_text("{ not json at all")
    tampered = json.loads(second.read_text())
    tampered["checksum"] = "0" * 64
    second.write_text(json.dumps(tampered))

    warm = run_sweep_parallel(cache_spec(), workers=1, cache=cache)
    assert cache.corrupt_discarded == 2
    assert warm.stats.cache_corrupt == 2
    assert warm.stats.executed == 2
    assert warm.stats.cache_hits == 2


def test_checkpoint_checksum_detects_tampering(tmp_path):
    cache = ResultCache(tmp_path)
    cache.write_checkpoint("sweep", done=3, total=8)
    assert cache.read_checkpoint("sweep")["done"] == 3

    path = tmp_path / "sweep" / "checkpoint.json"
    payload = json.loads(path.read_text())
    payload["done"] = 8  # claim the sweep finished
    path.write_text(json.dumps(payload))
    assert cache.read_checkpoint("sweep") is None
    assert cache.corrupt_discarded == 1

    # A checkpoint without schema and checksum is corrupt too.
    path.write_text(json.dumps(
        {"version": 1, "sweep": "sweep", "done": 2, "total": 8}
    ))
    assert cache.read_checkpoint("sweep") is None
    assert cache.corrupt_discarded == 2


def churn(fail=0.2):
    return registry.spec("random", fail=fail, restart_prob=0.5)


def test_point_key_is_stable_and_spec_sensitive():
    base = dict(
        sweep="s", algorithm=AlgorithmX, n=8, p=4, seed=0,
        adversary=churn(), max_ticks=None, fairness_window=None,
    )
    key = point_key(**base)
    assert key == point_key(**base)  # deterministic across calls
    assert key != point_key(**{**base, "seed": 1})
    assert key != point_key(**{**base, "n": 16})
    assert key != point_key(**{**base, "algorithm": AlgorithmV})
    assert key != point_key(**{**base, "adversary": churn(0.3)})
    assert key != point_key(**{**base, "max_ticks": 10})


def test_adversary_parameters_partition_the_cache(tmp_path, monkeypatch):
    # Two sweeps alike but for their adversary's failure probability
    # must not share entries: the second computes its own point.
    calls = counting_execute(monkeypatch)
    results = [
        run_sweep_parallel(
            SweepSpec(name="x", algorithm=AlgorithmX, sizes=(32,),
                      processors=8, adversary=churn(fail), seeds=(0,)),
            workers=1, cache_dir=tmp_path,
        )
        for fail in (0.05, 0.5)
    ]
    assert len(calls) == 2
    assert [result.stats.cache_hits for result in results] == [0, 0]
    quiet, dense = (result.points[0] for result in results)
    assert quiet.pattern_size < dense.pattern_size
    assert len(entry_files(tmp_path)) == 2


def test_adversary_must_be_a_registry_spec():
    # A callable would key by its qualified name alone, so two lambdas
    # with different parameters would share cache entries.
    for adversary in (lambda seed: None, RandomAdversary(0.1, 0.3)):
        with pytest.raises(TypeError, match="adversary"):
            SweepSpec(name="x", algorithm=AlgorithmX, sizes=(8,),
                      adversary=adversary)


def test_point_key_runner_substitution_changes_the_key():
    # A custom point runner executes a different measurement entirely,
    # so it must partition the cache; the default (runner=None) leaves
    # the legacy key material untouched so existing caches survive.
    from repro.simulation.persistent import PersistentCheckpointRunner

    base = dict(
        sweep="s", algorithm=AlgorithmX, n=8, p=4, seed=0,
        adversary=churn(), max_ticks=None, fairness_window=None,
    )
    legacy = point_key(**base)
    assert legacy == point_key(**base, runner=None)
    ck8 = point_key(**base, runner=PersistentCheckpointRunner(8))
    assert ck8 != legacy
    assert ck8 != point_key(**base, runner=PersistentCheckpointRunner(2))
    assert ck8 == point_key(**base, runner=PersistentCheckpointRunner(8))


def test_fingerprint_recurses_through_combinators():
    # Adversary specs fingerprint field-by-field, parameters included...
    assert fingerprint(churn()) == fingerprint(churn())
    assert fingerprint(registry.spec("thrashing", budget=256)) != fingerprint(
        registry.spec("thrashing", budget=512)
    )
    # ...one adversary has one spec, defaults spelled out or not...
    assert fingerprint(registry.spec("random", fail=0.1)) == fingerprint(
        registry.spec("random")
    )
    # ...and functools.partial by wrapped callable plus bound arguments.
    with_chunk = functools.partial(AlgorithmV, chunk=4)
    assert fingerprint(with_chunk) == fingerprint(
        functools.partial(AlgorithmV, chunk=4)
    )
    assert fingerprint(with_chunk) != fingerprint(
        functools.partial(AlgorithmV, chunk=8)
    )


def test_fingerprint_of_cycle_records_is_field_by_field():
    # Write and Cycle are slotted records, not dataclasses; they
    # fingerprint as the frozen dataclasses they replaced did.
    from repro.pram.cycles import Cycle, Write

    assert fingerprint(Write(1, 2)) == "repro.pram.cycles.Write(address=1,value=2)"
    assert fingerprint(Cycle(reads=(3,), writes=(Write(1, 2),), label="x")) == (
        "repro.pram.cycles.Cycle(reads=[3],"
        "writes=[repro.pram.cycles.Write(address=1,value=2)],label='x')"
    )
