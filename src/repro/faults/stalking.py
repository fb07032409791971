"""The paper's stalking adversaries (Theorem 4.8 and Section 5).

**Against algorithm X** (Theorem 4.8): processor 0 is allowed to traverse
the progress tree in post-order, left to right.  Any other processor is
failed the moment it would perform leaf work at an unfinished leaf other
than the one processor 0 currently occupies; it is restarted once its
stored position becomes harmless (its leaf got finished, or it sits at
processor 0's leaf).  The restarted processors travel to the new work
frontier — completing travel cycles that are charged to S — only to be
stopped again at the next leaf.  This realizes the recursion
``S(N) = 3 * S(N/2) + O(N log N)`` (left subtree with half the
processors, then everybody migrates right and the right subtree costs
twice the half-size work by Lemma 4.5), forcing
``S = Omega(N^{log 3}) ~ N^1.585`` with ``P = N``.

**Against ACC** (Section 5): "choosing a single leaf in a binary tree
employed by ACC, and failing all processors that touch that leaf until
only one processor remains in the fail-stop case, or until all
processors simultaneously touch the leaf in the fail-stop/restart
case."  Randomization does not help against this on-line strategy; the
same algorithm under an *off-line* random pattern is efficient.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.faults.base import Adversary
from repro.pram.failures import BEFORE_WRITES, Decision
from repro.pram.ledger import RunLedger
from repro.pram.view import TickView


def _layout_from(view: TickView, *attributes: str) -> object:
    layout = view.context.get("layout")
    if layout is None:
        raise ValueError(
            f"{attributes and attributes[0]}: adversary requires "
            "context['layout']"
        )
    for attribute in attributes:
        if not hasattr(layout, attribute):
            raise ValueError(
                f"layout lacks attribute {attribute!r} required by the adversary"
            )
    return layout


class StalkingAdversaryX(Adversary):
    """Theorem 4.8's post-order stalker against algorithm X.

    Requires a layout exposing ``n``, ``x_base`` (the Write-All array) and
    ``w_base`` (algorithm X's shared position array, ``w[pid]`` holding
    the heap index of the processor's current progress-tree node; leaves
    are heap indices ``>= n``).

    **The leaf index.**  Each tick restarts every failed pid whose
    position is harmless: not a leaf, a finished leaf (``x == 1``), or
    processor 0's leaf.  Testing a pid reads ``w[pid]`` and its leaf's
    ``x`` cell, and most pids stay failed for many ticks, so instead of
    testing every failed pid every tick the adversary keeps, between
    consecutive consults of one run, the failed pids it tested and left
    failed (*parked*), indexed by the leaf their position names.  The
    index is exact.  A failed pid writes nothing, and memory changes
    only through the writes of the pending cycles the adversary saw
    last tick.  So a parked pid's test can change its answer only when
    one of those writes targeted its ``w`` cell (it is tested again in
    full) or its leaf's ``x`` cell, or when the leader now holds its
    leaf (every pid parked at that leaf is tested again).  Pids that
    are failed but not parked are tested in full: those new to
    ``failed_pids``, and those restarted last tick that are still
    failed because a wrapper dropped the restart.  Parked pids that
    left ``failed_pids`` (the machine's progress rule restarts one) are
    dropped from the index.  When the adversary cannot vouch for
    continuity (a different ledger, a ``view.time`` that is not one
    past its last consult, or after :meth:`reset`) it tests every
    failed pid and rebuilds the index.
    """

    # Fully adaptive (tracks the leader's position every tick), so the
    # inherited per-tick event horizon (quiet_until = tick + 1) stands.

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: The run and the tick of the last consult: the index holds
        #: only for the next tick of that run.
        self._ledger: Optional[RunLedger] = None
        self._time = 0
        #: Parked pids, by pid (their leaf) and by leaf.
        self._parked: Dict[int, int] = {}
        self._by_leaf: Dict[int, Set[int]] = {}
        #: Addresses the pending cycles of the last consult write.
        self._written: List[int] = []

    def decide(self, view: TickView) -> Decision:
        layout = _layout_from(view, "n", "x_base", "w_base")
        n = layout.n
        x_base = layout.x_base
        w_base = layout.w_base
        read = view.memory.read

        # Where is processor 0 working?  (None once it halted/exited.)
        leader_element: Optional[int] = None
        position_of_leader = read(w_base + 0)
        if position_of_leader >= n:
            leader_element = position_of_leader - n

        failures = {}
        written: List[int] = []
        for pid, pending in view.pending.items():
            stalked = pid != 0
            for write in pending.writes:
                address = write.address
                written.append(address)
                if stalked:
                    element = address - x_base
                    if 0 <= element < n and element != leader_element:
                        if read(address) == 0:
                            failures[pid] = BEFORE_WRITES
                            stalked = False

        restarts: List[int] = []
        parked = self._parked
        by_leaf = self._by_leaf
        failed = set(view.failed_pids)
        if view.ledger is self._ledger and view.time == self._time + 1:
            untested = failed.difference(parked)
            if len(failed) - len(untested) != len(parked):
                for pid in parked.keys() - failed:
                    self._unpark(pid)
            leaves = [] if leader_element is None else [leader_element]
            for address in self._written:
                pid = address - w_base
                if pid in parked:
                    untested.add(pid)
                    self._unpark(pid)
                if address - x_base in by_leaf:
                    leaves.append(address - x_base)
            for element in leaves:
                pids = by_leaf.get(element)
                if pids and (
                    element == leader_element or read(x_base + element) == 1
                ):
                    del by_leaf[element]
                    for pid in pids:
                        del parked[pid]
                    restarts.extend(pids)
        else:
            parked.clear()
            by_leaf.clear()
            untested = failed
        for pid in untested:
            position = read(w_base + pid)
            if position < n or position >= 2 * n:
                # Interior node, uninitialized, or exited: travelling is
                # harmless — revive.
                restarts.append(pid)
                continue
            element = position - n
            if read(x_base + element) == 1 or element == leader_element:
                restarts.append(pid)
            else:
                parked[pid] = element
                by_leaf.setdefault(element, set()).add(pid)

        self._ledger = view.ledger
        self._time = view.time
        self._written = written
        return Decision(failures=failures, restarts=frozenset(restarts))

    def _unpark(self, pid: int) -> None:
        element = self._parked.pop(pid)
        pids = self._by_leaf[element]
        pids.discard(pid)
        if not pids:
            del self._by_leaf[element]


class AccStalker(Adversary):
    """Section 5's stalker against the randomized ACC algorithm.

    Targets a single element of the Write-All array (by default the last
    one) and fails every processor about to write it.  With restarts
    enabled the element is only completed when *every* live processor
    attempts it in the same tick (or when a lone survivor attempts it);
    wrap this adversary in :class:`~repro.faults.budget.NoRestartAdversary`
    for the fail-stop variant, where the stalker kills touchers until a
    single processor remains.
    """

    # Adaptive per tick (watches every pending write set), so the
    # inherited per-tick event horizon (quiet_until = tick + 1) stands.

    def __init__(
        self,
        target: Optional[int] = None,
        stagger: int = 3,
        fail_stop: bool = False,
    ) -> None:
        if stagger < 1:
            raise ValueError(f"stagger must be >= 1, got {stagger}")
        self.target = target
        self.stagger = stagger
        #: Fail-stop play (paper: "failing all processors that touch that
        #: leaf until only one processor remains"): when every live
        #: processor touches the target at once, kill all but one instead
        #: of conceding.  Wrap in NoRestartAdversary to suppress revivals.
        self.fail_stop = fail_stop

    def _target_element(self, n: int) -> int:
        return self.target if self.target is not None else n - 1

    def decide(self, view: TickView) -> Decision:
        layout = _layout_from(view, "n", "x_base")
        n = layout.n
        x_base = layout.x_base
        target = self._target_element(n)
        target_address = x_base + target

        if view.memory.read(target_address) != 0:
            # Target already done; stand down, revive everyone.
            return Decision(restarts=frozenset(view.failed_pids))

        touchers = sorted(
            pid
            for pid, pending in view.pending.items()
            if pending.writes_to(target_address)
        )
        alive = set(view.pending)
        non_touchers = alive - set(touchers)

        failures = {}
        if touchers and non_touchers:
            # Someone else keeps the progress condition; kill all touchers.
            failures = {pid: BEFORE_WRITES for pid in touchers}
        elif touchers and not non_touchers and len(touchers) > 1:
            if self.fail_stop:
                # Fail-stop play: whittle the crew down to one survivor.
                failures = {pid: BEFORE_WRITES for pid in touchers[1:]}
            # Restart play: everybody is at the target simultaneously —
            # the adversary has lost this round, let them through
            # (failing all would violate progress anyway).
        # A lone toucher is always allowed through (progress condition).

        # Staggered restarts: reviving every victim in the same tick would
        # hand the algorithm a synchronization gift (the lock-step restart
        # cohort reaches the target simultaneously).  A real on-line
        # adversary restarts them out of phase.
        restarts = frozenset(
            pid
            for pid in view.failed_pids
            if view.time % self.stagger == pid % self.stagger
        )
        return Decision(failures=failures, restarts=restarts)
