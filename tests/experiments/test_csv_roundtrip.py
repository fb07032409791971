"""CSV export must round-trip: parse the file back, get equal points."""

import csv

import pytest

from repro.core import AlgorithmX
from repro.experiments import RunPoint, SweepSpec, run_sweep
from repro.faults import registry


def small_sweep():
    return run_sweep(SweepSpec(
        name="csv-roundtrip",
        algorithm=AlgorithmX,
        sizes=(8, 16),
        processors=lambda n: n // 2,
        adversary=registry.spec("random", fail=0.2, restart_prob=0.5),
        seeds=(0, 1, 2),
        max_ticks=200_000,
    ))


def test_csv_round_trips_exactly(tmp_path):
    result = small_sweep()
    path = tmp_path / "sweep.csv"
    result.export_csv(str(path))

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        parsed = [RunPoint.from_csv_row(header, row) for row in reader]

    # RunPoint is a frozen dataclass: == compares every field, including
    # the float sigma, which is why csv_row writes full precision.
    assert parsed == result.points


def test_csv_round_trip_preserves_sigma_bits(tmp_path):
    result = small_sweep()
    path = tmp_path / "sweep.csv"
    result.export_csv(str(path))
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        parsed = [RunPoint.from_csv_row(header, row) for row in reader]
    for original, reread in zip(result.points, parsed):
        assert reread.overhead_ratio == original.overhead_ratio
        assert reread.solved is original.solved


def test_header_mismatch_is_rejected():
    point = RunPoint(
        n=8, p=4, seed=0, solved=True, completed_work=10, charged_work=12,
        pattern_size=1, overhead_ratio=1.5, parallel_time=3,
    )
    good_header = RunPoint.csv_header()
    row = [str(value) for value in point.csv_row()]
    assert RunPoint.from_csv_row(good_header, row) == point

    stale = ["n", "p", "seed", "S"]  # older/foreign schema
    with pytest.raises(ValueError):
        RunPoint.from_csv_row(stale, row)
