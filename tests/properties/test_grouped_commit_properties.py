"""Property tests: the fast path's batched commit vs per-address writes.

``Machine._commit_pending`` commits a tick's surviving writes, read
from the tick's pending cycle views, in one batch, calling
``policy.resolve`` only for addresses with several writers, and under a
policy whose agreeing resolve is the identity it keeps agreeing writers
as one write.  The kernel quiet tick (``Machine._quiet_tick_kernel``)
stages flat pairs the same way.  The reference tick instead resolves
and writes every address one by one in ascending order.  For any
collision pattern the three must leave the same memory and the same
write count — and when a policy raises, the same error after the same
partial writes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pram.compiled import CompiledProgram
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import WriteConflictError
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.view import PendingCycleView
from repro.pram.policies import (
    ArbitraryCrcw,
    CollisionCrcw,
    CommonCrcw,
    Crew,
    PriorityCrcw,
    StrongCrcw,
)

SIZE = 8
PIDS = 6
POLICIES = (
    CommonCrcw, ArbitraryCrcw, StrongCrcw, lambda: CollisionCrcw(-7),
    PriorityCrcw, Crew,
)


@st.composite
def tick_writes(draw):
    """``[(pid, (Write, ...)), ...]`` in ascending PID order.

    A processor writes at most two distinct cells per cycle; some
    addresses are zeroed so the zero-region tracker sees transitions.
    """
    pairs = draw(st.lists(
        st.tuples(st.integers(0, PIDS - 1), st.integers(0, SIZE - 1)),
        max_size=12, unique=True,
    ))
    by_pid = {}
    for pid, address in pairs:
        if len(by_pid.setdefault(pid, [])) < 2:
            by_pid[pid].append(
                Write(address, draw(st.sampled_from((0, 1, 2))))
            )
    return sorted((pid, tuple(writes)) for pid, writes in by_pid.items())


@st.composite
def agreeing_tick_writes(draw):
    """Agreeing groups, optionally with one late disagreeing writer.

    Every processor writes the shared cells it draws with that cell's
    one agreed value (the step-cell pattern of V and W); with
    ``late=True`` the highest-PID writer of one shared cell writes a
    different value instead, so the disagreement shows up only after
    the agreeing writers were staged.
    """
    shared = draw(st.lists(st.integers(0, SIZE - 1), min_size=1,
                           max_size=3, unique=True))
    agreed = {address: draw(st.sampled_from((0, 1, 2))) for address in shared}
    writes_by_pid = {}
    for pid in range(PIDS):
        addresses = draw(st.lists(st.sampled_from(shared), max_size=2,
                                  unique=True))
        if addresses:
            writes_by_pid[pid] = [
                Write(address, agreed[address]) for address in addresses
            ]
    if draw(st.booleans()) and writes_by_pid:
        address = draw(st.sampled_from(shared))
        writers = [pid for pid, writes in writes_by_pid.items()
                   if any(w.address == address for w in writes)]
        if writers:
            late = max(writers)
            writes_by_pid[late] = [
                Write(w.address, w.value + 1) if w.address == address else w
                for w in writes_by_pid[late]
            ]
    return sorted(
        (pid, tuple(writes)) for pid, writes in writes_by_pid.items()
    )


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


def fast_apply(make_policy, pairs, failures=None, stalls=frozenset()):
    """The observable tick's commit over one view per writing pid."""
    def apply(memory):
        machine = Machine(num_processors=PIDS, memory=memory,
                          policy=make_policy())
        pending = {
            pid: PendingCycleView(pid, Cycle(), (), writes)
            for pid, writes in pairs
        }
        machine._commit_pending(pending, failures or {}, stalls)

    return apply


class _Staging(CompiledProgram):
    """A stub stepper whose quiet step stages the given flat pairs."""

    __slots__ = ("flat",)

    def __init__(self, writes):
        self.flat = [item for w in writes for item in (w.address, w.value)]
        self.live = False

    def reset(self):
        self.live = True
        return True

    def quiet_step(self, cells, out):
        out.extend(self.flat)
        return 0


def kernel_apply(make_policy, pairs):
    def apply(memory):
        by_pid = dict(pairs)
        machine = Machine(num_processors=PIDS, memory=memory,
                          policy=make_policy())
        machine.load_program(
            lambda pid: iter(()),
            compiled_program=lambda pid: _Staging(by_pid.get(pid, ())),
        )
        machine._refresh_status_caches()
        machine._quiet_tick_kernel(machine._running_cache)

    return apply


def check_lanes(make_policy, pairs):
    expected = outcome(lambda memory: reference_apply(
        memory, make_policy(), pairs
    ))
    assert outcome(fast_apply(make_policy, pairs)) == expected
    assert outcome(kernel_apply(make_policy, pairs)) == expected


@given(pairs=tick_writes(), which=st.sampled_from(range(len(POLICIES))))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batched_commit_matches_reference(pairs, which):
    check_lanes(POLICIES[which], pairs)


@given(pairs=agreeing_tick_writes(),
       which=st.sampled_from(range(len(POLICIES))))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_agreeing_groups_match_reference(pairs, which):
    check_lanes(POLICIES[which], pairs)


@st.composite
def interrupted_tick_writes(draw):
    """``(pairs, failures, stalls)``: some writers fail or are stalled.

    A failed pid keeps a drawn prefix of its writes, a stalled pid none
    of them; the rest of the tick is :func:`tick_writes`.
    """
    pairs = draw(tick_writes())
    failures, stalls = {}, set()
    for pid, writes in pairs:
        fate = draw(st.sampled_from(("run", "fail", "stall")))
        if fate == "fail":
            failures[pid] = draw(st.integers(0, len(writes)))
        elif fate == "stall":
            stalls.add(pid)
    return pairs, failures, frozenset(stalls)


@given(tick=interrupted_tick_writes(),
       which=st.sampled_from(range(len(POLICIES))))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_failed_and_stalled_writers_match_reference(tick, which):
    pairs, failures, stalls = tick
    surviving = [
        (pid, writes[: failures.get(pid)])
        for pid, writes in pairs if pid not in stalls
    ]
    make_policy = POLICIES[which]
    expected = outcome(lambda memory: reference_apply(
        memory, make_policy(), surviving
    ))
    assert outcome(fast_apply(make_policy, pairs, failures, stalls)) == \
        expected
