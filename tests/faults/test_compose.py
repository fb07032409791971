"""Tests for adversary composition."""

import pytest

from repro.core import AlgorithmX, solve_write_all
from repro.faults import (
    NoFailures,
    PhaseSwitchAdversary,
    RandomAdversary,
    SinglePidKiller,
    UnionAdversary,
    registry,
)
from repro.pram.trace import Tracer


def ledger_fields(ledger):
    return (
        ledger.ticks,
        ledger.completed_by_pid.copy(),
        ledger.attempted_by_pid.copy(),
        list(ledger.pattern),
        ledger.completed_per_tick,
        ledger.memory_reads,
        ledger.memory_writes,
    )


class TestUnion:
    def test_merges_failures(self):
        union = UnionAdversary([
            SinglePidKiller(1, at_tick=2),
            SinglePidKiller(2, at_tick=2),
        ])
        result = solve_write_all(AlgorithmX(), 16, 16, adversary=union)
        assert result.solved
        failed_pids = {
            event.pid
            for event in result.ledger.pattern
            if event.is_failure()
        }
        assert failed_pids == {1, 2}

    def test_requires_members(self):
        with pytest.raises(ValueError):
            UnionAdversary([])

    def test_union_with_noop_is_identity(self):
        base = RandomAdversary(0.1, 0.2, seed=3)
        alone = solve_write_all(AlgorithmX(), 32, 32, adversary=base)
        union = UnionAdversary([NoFailures(), RandomAdversary(0.1, 0.2, seed=3)])
        merged = solve_write_all(AlgorithmX(), 32, 32, adversary=union)
        assert alone.completed_work == merged.completed_work


    def test_union_keeps_stalls(self):
        # Speed classes act only through stalls: a union that drops
        # them runs X stall-free, in 2 ticks instead of 8.
        alone = solve_write_all(
            AlgorithmX(), 64, 64, adversary=registry.build("speed-classes")
        )
        union = UnionAdversary([Tracer(), registry.build("speed-classes")])
        traced = solve_write_all(AlgorithmX(), 64, 64, adversary=union)
        assert alone.ledger.ticks == 8
        assert ledger_fields(traced.ledger) == ledger_fields(alone.ledger)


class TestPhaseSwitch:
    def test_quiet_then_storm(self):
        adversary = PhaseSwitchAdversary(
            NoFailures(), RandomAdversary(0.3, 0.5, seed=1), switch_tick=3
        )
        result = solve_write_all(AlgorithmX(), 32, 32, adversary=adversary)
        assert result.solved
        assert all(event.time >= 3 for event in result.ledger.pattern)

    def test_storm_then_quiet(self):
        adversary = PhaseSwitchAdversary(
            RandomAdversary(0.5, 0.5, seed=1), NoFailures(), switch_tick=4
        )
        result = solve_write_all(AlgorithmX(), 32, 32, adversary=adversary)
        assert result.solved
        assert all(event.time < 4 for event in result.ledger.pattern)

    def test_validates_switch_tick(self):
        with pytest.raises(ValueError):
            PhaseSwitchAdversary(NoFailures(), NoFailures(), switch_tick=0)
