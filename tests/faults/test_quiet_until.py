"""Unit tests for the event-horizon protocol (``Adversary.quiet_until``).

The machine's fast-forward loop trusts these horizons to skip adversary
consults, so each adversary's promise must be *provably* the earliest
tick at which its ``decide()`` could act.  These tests pin the horizon
arithmetic per adversary and the trust guard in
:func:`repro.faults.quiet_horizon` (a horizon inherited past an
overridden ``decide`` must not be honored).
"""

from __future__ import annotations

import pytest

from repro.faults import (
    QUIET_FOREVER,
    AdaptiveLoadAdversary,
    Adversary,
    BurstAdversary,
    FailureBudgetAdversary,
    NoFailures,
    NoRestartAdversary,
    PhaseSwitchAdversary,
    RandomAdversary,
    RecordingAdversary,
    ScheduledAdversary,
    SinglePidKiller,
    ThrashingAdversary,
    UnionAdversary,
    quiet_horizon,
)
from repro.pram.failures import BEFORE_WRITES, Decision
from repro.pram.trace import Tracer
from repro.util.hooks import trusted_hook


class TestBaseContract:
    def test_default_horizon_is_next_tick(self):
        assert Adversary().quiet_until(7) == 8

    def test_adaptive_adversaries_keep_the_default(self):
        # These react to per-tick machine state, so any promise beyond
        # the next tick would be unsound.
        assert ThrashingAdversary().quiet_until(5) == 6

    def test_no_failures_is_quiet_forever(self):
        assert NoFailures().quiet_until(0) == QUIET_FOREVER


class TestSinglePidKiller:
    def test_before_event_points_at_event(self):
        killer = SinglePidKiller(pid=2, at_tick=9)
        assert killer.quiet_until(0) == 9
        assert killer.quiet_until(8) == 9

    def test_at_and_after_event_quiet_forever(self):
        killer = SinglePidKiller(pid=2, at_tick=9)
        assert killer.quiet_until(9) == QUIET_FOREVER
        assert killer.quiet_until(100) == QUIET_FOREVER


class TestScheduledAdversary:
    def test_bisect_to_next_event(self):
        scheduled = ScheduledAdversary({
            5: ([0], []), 12: ([], [0]), 30: ([1], []),
        })
        assert scheduled.quiet_until(0) == 5
        assert scheduled.quiet_until(4) == 5
        # At an event tick the horizon is the *next* event (the current
        # tick's consult has already been granted).
        assert scheduled.quiet_until(5) == 12
        assert scheduled.quiet_until(11) == 12
        assert scheduled.quiet_until(12) == 30

    def test_exhausted_schedule_quiet_forever(self):
        scheduled = ScheduledAdversary({5: ([0], [])})
        assert scheduled.quiet_until(5) == QUIET_FOREVER

    def test_empty_schedule_quiet_forever(self):
        assert ScheduledAdversary({}).quiet_until(0) == QUIET_FOREVER


class TestRandomAdversary:
    def test_active_random_never_promises_quiet(self):
        # decide() consumes RNG draws every tick; skipping consults
        # would shift the stream.
        adversary = RandomAdversary(0.1, 0.3, seed=0)
        assert adversary.quiet_until(10) == 11

    def test_degenerate_random_is_quiet_forever(self):
        adversary = RandomAdversary(0.0, 0.0, seed=0)
        assert adversary.quiet_until(10) == QUIET_FOREVER


class TestBurstAdversary:
    def test_horizon_is_next_phase_tick(self):
        # period=10, downtime=3: events on ticks = 0 (mod 10) and
        # ticks = 3 (mod 10).
        burst = BurstAdversary(period=10, fraction=0.5, downtime=3)
        assert burst.quiet_until(0) == 3
        assert burst.quiet_until(3) == 10
        assert burst.quiet_until(10) == 13
        assert burst.quiet_until(14) == 20

    def test_downtime_congruent_to_period(self):
        burst = BurstAdversary(period=5, fraction=0.5, downtime=5)
        # Both phases coincide at multiples of the period.
        assert burst.quiet_until(1) == 5
        assert burst.quiet_until(5) == 10


class TestAdaptiveLoadAdversary:
    def test_restarting_variant_never_promises_quiet(self):
        adversary = AdaptiveLoadAdversary(count=1, period=7, restart=True)
        assert adversary.quiet_until(3) == 4

    def test_fail_stop_variant_aligns_to_period(self):
        adversary = AdaptiveLoadAdversary(count=1, period=7, restart=False)
        assert adversary.quiet_until(1) == 7
        assert adversary.quiet_until(7) == 14
        assert adversary.quiet_until(13) == 14


class TestBudgetAdversary:
    def test_delegates_to_inner_before_exhaustion(self):
        inner = ScheduledAdversary({8: ([0], [])})
        budget = FailureBudgetAdversary(inner, budget=4)
        assert budget.quiet_until(2) == 8

    def test_exhausted_budget_quiet_forever(self):
        budget = FailureBudgetAdversary(
            RandomAdversary(0.5, 0.5, seed=0), budget=0
        )
        assert budget.quiet_until(2) == QUIET_FOREVER

    def test_no_restart_wrapper_delegates(self):
        inner = ScheduledAdversary({8: ([0], [])})
        assert NoRestartAdversary(inner).quiet_until(2) == 8


class TestComposition:
    def test_union_takes_earliest_member_horizon(self):
        union = UnionAdversary([
            ScheduledAdversary({20: ([0], [])}),
            ScheduledAdversary({12: ([1], [])}),
        ])
        assert union.quiet_until(0) == 12
        assert union.quiet_until(12) == 20
        assert union.quiet_until(20) == QUIET_FOREVER

    def test_tracer_pins_union_to_every_tick(self):
        union = UnionAdversary([
            Tracer(), ScheduledAdversary({500: ([0], [])}),
        ])
        assert union.quiet_until(3) == 4

    def test_phase_switch_caps_first_regime_at_switch(self):
        switch = PhaseSwitchAdversary(
            NoFailures(), ScheduledAdversary({90: ([0], [])}),
            switch_tick=50,
        )
        # First regime is quiet forever, but the second adversary must
        # get its first consult at the switch.
        assert switch.quiet_until(10) == 50
        assert switch.quiet_until(49) == 90
        assert switch.quiet_until(60) == 90

    def test_recording_adversary_delegates(self):
        recording = RecordingAdversary(ScheduledAdversary({7: ([0], [])}))
        assert recording.quiet_until(0) == 7
        assert recording.quiet_until(7) == QUIET_FOREVER


class TestTracer:
    def test_tracer_never_promises_quiet(self):
        assert Tracer().quiet_until(41) == 42


class TestTrustGuard:
    """`quiet_horizon` must not honor horizons inherited past decide()."""

    def test_plain_instance_is_honored(self):
        assert quiet_horizon(SinglePidKiller(0, at_tick=6), 1) == 6

    def test_subclass_overriding_decide_loses_inherited_horizon(self):
        class Louder(NoFailures):
            def decide(self, view):
                return Decision.fail([0], BEFORE_WRITES)

        # NoFailures.quiet_until says QUIET_FOREVER, but that promise
        # was about NoFailures.decide, which Louder replaced.
        assert quiet_horizon(Louder(), 3) == 4

    def test_subclass_restating_both_is_honored(self):
        class LoudButScheduled(NoFailures):
            def decide(self, view):
                return Decision.none()

            def quiet_until(self, tick):
                return 99

        assert quiet_horizon(LoudButScheduled(), 3) == 99

    def test_deeper_subclass_without_decide_keeps_horizon(self):
        class JustRenamed(SinglePidKiller):
            pass

        assert quiet_horizon(JustRenamed(0, at_tick=6), 1) == 6

    def test_instance_level_decide_loses_class_horizon(self):
        killer = SinglePidKiller(0, at_tick=6)
        killer.decide = lambda view: Decision.none()
        assert quiet_horizon(killer, 1) == 2

    def test_instance_level_horizon_is_honored(self):
        adversary = Adversary()
        adversary.quiet_until = lambda tick: 77
        assert quiet_horizon(adversary, 1) == 77

    def test_object_without_hook_gets_default(self):
        class Bare:
            def decide(self, view):
                return Decision.none()

        assert quiet_horizon(Bare(), 5) == 6

    def test_horizons_never_go_backwards_via_machine_clamp(self):
        # The machine clamps a stale horizon to tick + 1 rather than
        # looping; mirror that contract here for the trust rule the
        # machine applies.
        hook = trusted_hook(SinglePidKiller(0, at_tick=6), "quiet_until",
                            "decide")
        assert hook is not None
        assert hook(1) == 6

    def test_machine_guard_rejects_overriding_subclass(self):
        class Louder(NoFailures):
            def decide(self, view):
                return Decision.fail([0], BEFORE_WRITES)

        assert trusted_hook(Louder(), "quiet_until", "decide") is None


class TestHorizonSanity:
    """Every exported adversary's horizon must be > the asked tick."""

    @pytest.mark.parametrize("tick", [0, 1, 5, 100])
    def test_all_horizons_strictly_future(self, tick):
        adversaries = [
            Adversary(),
            NoFailures(),
            SinglePidKiller(0, at_tick=3),
            ScheduledAdversary({2: ([0], []), 50: ([], [0])}),
            RandomAdversary(0.2, 0.1, seed=0),
            BurstAdversary(period=4),
            ThrashingAdversary(),
            FailureBudgetAdversary(RandomAdversary(0.2, seed=0), budget=3),
            NoRestartAdversary(RandomAdversary(0.2, seed=0)),
            UnionAdversary([NoFailures(), ThrashingAdversary()]),
            PhaseSwitchAdversary(NoFailures(), ThrashingAdversary(),
                                 switch_tick=10),
            RecordingAdversary(RandomAdversary(0.2, seed=0)),
            AdaptiveLoadAdversary(count=1, period=3, restart=False),
            Tracer(),
        ]
        for adversary in adversaries:
            horizon = adversary.quiet_until(tick)
            assert horizon > tick, type(adversary).__name__
            assert horizon <= QUIET_FOREVER, type(adversary).__name__
