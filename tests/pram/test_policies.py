"""Unit tests for the CRCW write-resolution policies."""

import pytest

from repro.pram.errors import ReadConflictError, WriteConflictError
from repro.pram.policies import (
    ArbitraryCrcw,
    CollisionCrcw,
    CommonCrcw,
    Crew,
    Erew,
    PriorityCrcw,
    RotatingArbitraryCrcw,
    StrongCrcw,
    policy_by_name,
    policy_names,
)


class TestCommon:
    def test_agreeing_writers(self):
        assert CommonCrcw().resolve(0, [(0, 5), (1, 5), (2, 5)]) == 5

    def test_disagreement_raises(self):
        with pytest.raises(WriteConflictError, match="COMMON"):
            CommonCrcw().resolve(0, [(0, 5), (1, 6)])

    def test_single_writer(self):
        assert CommonCrcw().resolve(3, [(7, 9)]) == 9


class TestArbitrary:
    def test_lowest_pid_choice(self):
        assert ArbitraryCrcw().resolve(0, [(2, 10), (5, 20)]) == 10

    def test_rotating_variant_differs_over_time(self):
        policy = RotatingArbitraryCrcw()
        values = {policy.resolve(0, [(0, 1), (1, 2)]) for _ in range(4)}
        assert values == {1, 2}


class TestPriority:
    def test_lowest_pid_wins(self):
        assert PriorityCrcw().resolve(0, [(1, 10), (4, 20)]) == 10


class TestStrong:
    def test_max_value_wins(self):
        assert StrongCrcw().resolve(0, [(0, 3), (1, 9), (2, 5)]) == 9


class TestCollision:
    def test_agreement_passes(self):
        assert CollisionCrcw().resolve(0, [(0, 4), (1, 4)]) == 4

    def test_disagreement_marks_collision(self):
        assert CollisionCrcw().resolve(0, [(0, 4), (1, 5)]) == -1

    def test_custom_collision_value(self):
        assert CollisionCrcw(collision_value=-9).resolve(0, [(0, 1), (1, 2)]) == -9


class TestCrewErew:
    def test_crew_allows_concurrent_reads(self):
        Crew().check_reads(0, [0, 1, 2])  # no exception

    def test_crew_rejects_concurrent_writes(self):
        with pytest.raises(WriteConflictError, match="CREW"):
            Crew().resolve(0, [(0, 1), (1, 1)])

    def test_erew_rejects_concurrent_reads(self):
        with pytest.raises(ReadConflictError, match="EREW"):
            Erew().check_reads(0, [0, 1])

    def test_erew_rejects_concurrent_writes(self):
        with pytest.raises(WriteConflictError, match="EREW"):
            Erew().resolve(0, [(0, 1), (1, 1)])

    def test_single_access_fine(self):
        Erew().check_reads(0, [3])
        assert Erew().resolve(0, [(3, 8)]) == 8


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(policy_by_name("common"), CommonCrcw)
        assert isinstance(policy_by_name("EREW"), Erew)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            policy_by_name("SUPER")

    def test_names_cover_paper_models(self):
        names = policy_names()
        for expected in ["COMMON", "ARBITRARY", "PRIORITY", "STRONG",
                         "CREW", "EREW", "COLLISION"]:
            assert expected in names


#: Every stock policy, and whether it declares agreeing resolution the
#: identity (what the machine's batched commit relies on).
STOCK_POLICIES = [
    (CommonCrcw, True),
    (ArbitraryCrcw, True),
    (PriorityCrcw, True),
    (StrongCrcw, True),
    (lambda: CollisionCrcw(-7), True),
    (Crew, False),
    (Erew, False),
    (RotatingArbitraryCrcw, False),
]


class TestAgreeingResolveFlag:
    @pytest.mark.parametrize(
        "make_policy, declared", STOCK_POLICIES,
        ids=lambda item: item().name if callable(item) else str(item),
    )
    def test_flag_matches_resolve_on_equal_writers(self, make_policy,
                                                   declared):
        policy = make_policy()
        assert policy.agreeing_resolve_is_identity is declared
        if not declared:
            return
        for count in range(2, 9):
            for value in (0, 1, -3, 1 << 40):
                writers = [(pid * 3 + 1, value) for pid in range(count)]
                state = dict(vars(policy))
                assert policy.resolve(11, writers) == value
                assert vars(policy) == state

    def test_exclusive_write_policies_reject_agreeing_writers(self):
        # CREW and EREW keep the flag False although their singleton
        # resolve is the identity: two equal writes still conflict.
        for policy in (Crew(), Erew()):
            assert policy.singleton_resolve_is_identity
            with pytest.raises(WriteConflictError):
                policy.resolve(0, [(0, 4), (1, 4)])

    def test_rotating_policy_changes_state_on_agreeing_writers(self):
        policy = RotatingArbitraryCrcw()
        before = dict(vars(policy))
        policy.resolve(0, [(0, 4), (1, 4)])
        assert vars(policy) != before
