"""Tests for the stalking adversaries (Theorem 4.8 and Section 5)."""

import math
from typing import Optional, Set

import pytest

from repro.core import (
    AccAlgorithm, AlgorithmVX, AlgorithmX, solve_write_all,
)
from repro.faults import (
    AccStalker, FailureBudgetAdversary, NoRestartAdversary,
    StalkingAdversaryX,
)
from repro.faults.base import Adversary
from repro.metrics.fitting import fitted_exponent
from repro.pram.errors import WriteConflictError
from repro.pram.failures import BEFORE_WRITES, Decision
from repro.pram.view import TickView


class TestStalkingX:
    def test_always_terminates(self):
        for n in [8, 16, 32]:
            result = solve_write_all(
                AlgorithmX(), n, n, adversary=StalkingAdversaryX(),
                max_ticks=1_000_000,
            )
            assert result.solved

    def test_forces_super_linear_work(self):
        n = 64
        result = solve_write_all(
            AlgorithmX(), n, n, adversary=StalkingAdversaryX(),
            max_ticks=1_000_000,
        )
        assert result.completed_work >= n ** math.log2(3) / 2

    def test_work_stays_sub_quadratic(self):
        """Lemma 4.6: no pattern can push X past ~N^{log 3 + delta}."""
        sizes = [16, 32, 64, 128]
        works = []
        for n in sizes:
            result = solve_write_all(
                AlgorithmX(), n, n, adversary=StalkingAdversaryX(),
                max_ticks=5_000_000,
            )
            assert result.solved
            works.append(result.completed_work)
        exponent = fitted_exponent(sizes, works)
        assert math.log2(3) - 0.15 <= exponent <= 2.0

    def test_spares_processor_zero(self):
        result = solve_write_all(
            AlgorithmX(), 32, 32, adversary=StalkingAdversaryX(),
            max_ticks=1_000_000,
        )
        assert all(
            event.pid != 0
            for event in result.ledger.pattern
            if event.is_failure()
        )


class TestAccStalker:
    def test_restart_game_starves_the_target(self):
        """Section 5: the on-line stalker keeps the chosen leaf unwritten
        (quasi-polynomial expected work in the paper; with staggered
        restarts the synchronous instantiation starves outright)."""
        result = solve_write_all(
            AccAlgorithm(seed=1), 16, 16, adversary=AccStalker(),
            max_ticks=5_000,
        )
        assert not result.solved
        target_address = result.layout.x_base + 15
        assert result.memory.peek(target_address) == 0

    def test_everything_but_the_target_finishes(self):
        result = solve_write_all(
            AccAlgorithm(seed=4), 16, 16, adversary=AccStalker(),
            max_ticks=5_000,
        )
        x_base = result.layout.x_base
        others = [result.memory.peek(x_base + i) for i in range(15)]
        assert all(value == 1 for value in others)

    def test_random_failures_leave_acc_efficient(self):
        """The Section 5 contrast: ACC is only vulnerable to *adaptive*
        stalking; a comparable-rate random failure process barely slows
        it down."""
        from repro.faults import RandomAdversary

        result = solve_write_all(
            AccAlgorithm(seed=1), 16, 16,
            adversary=RandomAdversary(0.1, 0.3, seed=1),
            max_ticks=100_000,
        )
        assert result.solved
        assert result.parallel_time < 2_000

    def test_fail_stop_variant_terminates_with_blowup(self):
        """Without restarts the stalker kills touchers until a survivor
        finishes sequentially: solved, but far slower than failure-free."""
        free = solve_write_all(AccAlgorithm(seed=2), 16, 16)
        adversary = NoRestartAdversary(AccStalker())
        result = solve_write_all(
            AccAlgorithm(seed=2), 16, 16, adversary=adversary,
            max_ticks=500_000,
        )
        assert result.solved
        assert result.ledger.pattern.restart_count == 0
        assert result.parallel_time > free.parallel_time

    def test_custom_target_is_starved(self):
        result = solve_write_all(
            AccAlgorithm(seed=3), 16, 16, adversary=AccStalker(target=0),
            max_ticks=5_000,
        )
        assert result.memory.peek(result.layout.x_base + 0) == 0

    def test_stagger_validation(self):
        import pytest

        with pytest.raises(ValueError):
            AccStalker(stagger=0)


def full_scan_decide(view: TickView) -> Decision:
    """The stalker's decision by a full scan of every failed pid.

    The rule of Theorem 4.8 as the stalker first implemented it, kept
    as the oracle of its leaf index: every tick reads every failed
    pid's position and leaf.
    """
    layout = view.context["layout"]
    n, x_base, w_base = layout.n, layout.x_base, layout.w_base
    leader_element: Optional[int] = None
    position_of_leader = view.memory.read(w_base + 0)
    if position_of_leader >= n:
        leader_element = position_of_leader - n

    failures = {}
    for pid, pending in view.pending.items():
        if pid == 0:
            continue
        for write in pending.writes:
            element = write.address - x_base
            if 0 <= element < n and element != leader_element:
                if view.memory.read(x_base + element) == 0:
                    failures[pid] = BEFORE_WRITES
                    break

    restarts: Set[int] = set()
    for pid in view.failed_pids:
        position = view.memory.read(w_base + pid)
        if position < n or position >= 2 * n:
            restarts.add(pid)
            continue
        element = position - n
        if view.memory.read(x_base + element) == 1 or element == leader_element:
            restarts.add(pid)
    return Decision(failures=failures, restarts=frozenset(restarts))


class TeeStalker(Adversary):
    """Rules with the indexed stalker, checking each ruling against the
    full scan on the same view."""

    def __init__(
        self, stalker: StalkingAdversaryX, forward_reset: bool = True
    ) -> None:
        self.stalker = stalker
        self.forward_reset = forward_reset
        self.consults = 0

    def reset(self) -> None:
        if self.forward_reset:
            self.stalker.reset()

    def decide(self, view: TickView) -> Decision:
        decision = self.stalker.decide(view)
        expected = full_scan_decide(view)
        assert decision.failures == expected.failures, view.time
        assert decision.restarts == expected.restarts, view.time
        self.consults += 1
        return decision


class EveryOtherTick(Adversary):
    """Consults ``inner`` on even ticks only: the stalker misses the
    writes of every odd tick, so it must not trust its index."""

    def __init__(self, inner: Adversary) -> None:
        self.inner = inner

    def reset(self) -> None:
        self.inner.reset()

    def decide(self, view: TickView) -> Decision:
        if view.time % 2:
            return Decision.none()
        return self.inner.decide(view)


SIZES = [(n, p) for n in (16, 64, 256) for p in (n, n // 4)]
STALKED = {"X": AlgorithmX, "VX": AlgorithmVX}


def stalked_run(key, n, p, adversary):
    result = solve_write_all(
        STALKED[key](), n, p, adversary=adversary, max_ticks=1_000_000
    )
    assert result.solved
    return result


@pytest.mark.parametrize("key", sorted(STALKED))
@pytest.mark.parametrize("n,p", SIZES)
class TestLeafIndexMatchesFullScan:
    """The leaf-indexed stalker rules exactly like the full scan, tick
    by tick (the tee asserts it on every consult)."""

    def test_bare(self, key, n, p):
        tee = TeeStalker(StalkingAdversaryX())
        result = stalked_run(key, n, p, tee)
        assert tee.consults == result.ledger.ticks
        assert result.ledger.pattern.restart_count > 0

    def test_restarts_dropped(self, key, n, p):
        # NoRestartAdversary drops every restart; the full scan re-issues
        # them next tick, so the index must test those pids again.
        tee = TeeStalker(StalkingAdversaryX())
        result = stalked_run(key, n, p, NoRestartAdversary(tee))
        assert result.ledger.pattern.restart_count == 0
        assert tee.consults == result.ledger.ticks

    def test_failure_budget(self, key, n, p, request):
        if (key, n, p) == ("VX", 256, 64):
            request.applymarker(pytest.mark.xfail(
                raises=WriteConflictError, strict=True,
                reason="VX's interleave writes two values into V's step "
                "cell in one tick under churn (COMMON CRCW); the tee "
                "matches every consult before the machine raises",
            ))
        # Consults stop once the budget is spent.
        tee = TeeStalker(StalkingAdversaryX())
        budgeted = FailureBudgetAdversary(tee, n // 2)
        result = stalked_run(key, n, p, budgeted)
        assert budgeted.spent == n // 2
        assert tee.consults < result.ledger.ticks

    def test_consulted_every_other_tick(self, key, n, p):
        tee = TeeStalker(StalkingAdversaryX())
        result = stalked_run(key, n, p, EveryOtherTick(tee))
        assert tee.consults == result.ledger.ticks // 2

    def test_instance_reused_for_two_runs(self, key, n, p):
        # solve_write_all resets its adversary before a run; the third
        # run withholds that reset, so the stalker must notice the new
        # run on its own.
        stalker = StalkingAdversaryX()
        runs = [
            stalked_run(key, n, p, TeeStalker(stalker)),
            stalked_run(key, n, p, TeeStalker(stalker)),
            stalked_run(key, n, p, TeeStalker(stalker, forward_reset=False)),
        ]
        fresh = stalked_run(key, n, p, StalkingAdversaryX())
        for run in runs:
            assert list(run.ledger.pattern) == list(fresh.ledger.pattern)


def test_fresh_stalkers_pickle_identically():
    """A fresh stalker carries no run state, so every build is the same
    bytes (the e2e harness reads that as 'unseeded')."""
    import pickle

    from repro.faults import registry

    assert pickle.dumps(registry.build("stalker", seed=0)) == pickle.dumps(
        registry.build("stalker", seed=1)
    )
