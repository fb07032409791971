"""Property tests: the fast path's batched commit vs per-address writes.

``Machine._resolve_and_apply_fast`` commits a tick's surviving writes in
one batch, calling ``policy.resolve`` only for addresses with several
writers.  The reference tick instead resolves and writes every address
one by one in ascending order.  For any collision pattern the two must
leave the same memory and the same write count — and when a COMMON
violation raises, the same error after the same partial writes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pram.cycles import Write
from repro.pram.errors import WriteConflictError
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.policies import (
    ArbitraryCrcw,
    CollisionCrcw,
    CommonCrcw,
    StrongCrcw,
)

SIZE = 8
POLICIES = (
    CommonCrcw, ArbitraryCrcw, StrongCrcw, lambda: CollisionCrcw(-7),
)


@st.composite
def tick_writes(draw):
    """``[(pid, (Write, ...)), ...]`` in ascending PID order.

    A processor writes at most two distinct cells per cycle; some
    addresses are zeroed so the zero-region tracker sees transitions.
    """
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, SIZE - 1)),
        max_size=12, unique=True,
    ))
    by_pid = {}
    for pid, address in pairs:
        if len(by_pid.setdefault(pid, [])) < 2:
            by_pid[pid].append(
                Write(address, draw(st.sampled_from((0, 1, 2))))
            )
    return sorted((pid, tuple(writes)) for pid, writes in by_pid.items())


def reference_apply(memory, policy, pairs):
    """The reference tick's ``_apply_writes`` over the same pairs."""
    groups = {}
    for pid, writes in pairs:
        for write in writes:
            groups.setdefault(write.address, []).append((pid, write.value))
    for address in sorted(groups):
        memory.write(address, policy.resolve(address, groups[address]))


def outcome(apply):
    memory = SharedMemory(SIZE)
    memory.load([1, 0, 2, 0, 1, 0, 2, 0])
    tracker = memory.track_zeros(0, SIZE)
    error = None
    try:
        apply(memory)
    except WriteConflictError as exc:
        error = str(exc)
    return memory.snapshot(), memory.writes_applied, tracker.zeros, error


@given(pairs=tick_writes(), which=st.sampled_from(range(len(POLICIES))))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_commit_matches_reference(pairs, which):
    make_policy = POLICIES[which]

    def fast(memory):
        machine = Machine(num_processors=6, memory=memory,
                          policy=make_policy())
        machine._resolve_and_apply_fast(pairs)

    expected = outcome(lambda memory: reference_apply(
        memory, make_policy(), pairs
    ))
    assert outcome(fast) == expected
