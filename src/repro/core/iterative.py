"""The synchronized-iteration engine shared by algorithms W and V.

Both algorithms of [KS 89]/Section 4.1 run as a sequence of fixed-length
*iterations* over a progress tree with ``L = N / log N`` leaves, each
leaf owning ``log N`` array elements:

* (W only) *enumerate*: live processors count themselves bottom-up in a
  processor-counting tree and obtain a rank;
* *allocate*: processors descend the progress tree top-down, splitting
  proportionally to the unvisited-leaf counts — the Theorem 3.2 balanced
  allocation, driven by the permanent PID in V and by the (rank, total)
  pair in W;
* *work*: each processor performs the work at its leaf's elements;
* *update*: processors ascend from their leaf, rewriting each node with
  the sum of its children's done-counts, and a final cycle raises the
  completion flag once the root count reaches L.

Synchronization and restarts (the paper's "iteration wrap-around
counter", Section 4.1): every active processor writes the absolute step
number into a shared ``step`` cell on every cycle, so the cell always
holds the step executed one tick ago.  A restarted processor polls the
cell; when it reads a value two steps short of an iteration boundary it
joins the next iteration in lock step.  If the cell stays frozen for
three polls, no processor is active — the waiter asserts exactly that
("if after a restart, a processor detects that the counter did not
change for one cycle, it asserts that no processors were active") and
kick-starts a new iteration by writing a pre-boundary step value.

The step counter is *absolute* (monotone, never wrapped) so the
counting-tree entries of W can be tagged with the iteration number and
stale entries from earlier iterations decode to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.core.base import BaseLayout
from repro.core.tasks import TaskSet
from repro.core.trees import HeapTree
from repro.pram.compiled import TASK_CYCLE, CompiledProgram
from repro.pram.cycles import Cycle, Write, expect_cycle
from repro.pram.errors import ProgramError

#: Consecutive identical step-cell reads a waiter needs before asserting
#: that no processor is active.  Every active cycle writes the cell, so
#: two identical reads already imply a dead machine; three adds margin.
DEAD_POLLS = 3

#: Sentinel returned by :func:`_iterations` when a guarded join failed
#: (the waiter was one tick off); the caller goes back to waiting.
RESYNC = "resync"


@dataclass(frozen=True)
class IterativeLayout(BaseLayout):
    """Shared-memory plan for the V/W iteration engine."""

    d_base: int = 0
    leaves: int = 1
    chunk: int = 1
    step_addr: int = 0
    done_addr: int = 0
    # W only; c_base < 0 means "no counting tree" (algorithm V).
    c_base: int = -1
    p_leaves: int = 1

    @property
    def progress_tree(self) -> HeapTree:
        return HeapTree(base=self.d_base, leaves=self.leaves)

    @property
    def counting_tree(self) -> HeapTree:
        if self.c_base < 0:
            raise ValueError("this layout has no counting tree (algorithm V)")
        return HeapTree(base=self.c_base, leaves=self.p_leaves)

    @property
    def has_counting_tree(self) -> bool:
        return self.c_base >= 0


def iteration_length(layout: IterativeLayout, tasks: TaskSet) -> int:
    """Total update cycles per iteration ("fixed at compile time")."""
    log_l = layout.progress_tree.height
    slot = tasks.cycles_per_task + 1
    length = (1 + log_l) + layout.chunk * slot + (1 + log_l) + 1
    if layout.has_counting_tree:
        length += 1 + layout.counting_tree.height
    return length


def _wrap_with_step(cycle: Cycle, step_write: Write) -> Cycle:
    """Append the step-counter write to a task cycle.

    Task cycles used with V/W may carry at most one write of their own so
    the wrapped cycle stays within the two-write budget.
    """

    def writes(values: Tuple[int, ...]) -> Tuple[Write, ...]:
        own = tuple(cycle.materialize_writes(values))
        if len(own) > 1:
            raise ProgramError(
                f"task cycle {cycle.label!r} has {len(own)} writes; tasks "
                f"used with the V/W engine may write at most one cell"
            )
        return own + (step_write,)

    return Cycle(reads=cycle.reads, writes=writes, label=cycle.label)


def phased_program(
    pid: int, layout: IterativeLayout, tasks: TaskSet
) -> Generator[Cycle, tuple, None]:
    """The per-processor program (waiter/recovery loop + iterations)."""
    lam = iteration_length(layout, tasks)
    step_addr = layout.step_addr
    done_addr = layout.done_addr

    last_seen: Optional[int] = None
    same_polls = 0
    while True:
        values = yield Cycle(reads=(step_addr, done_addr), label="vw:wait")
        step_seen, done = values
        if done != 0:
            return
        if step_seen % lam == lam - 2:
            # The active group executes step `step_seen + 1` this very
            # tick and the iteration boundary (step ≡ 0 mod lam) on the
            # next one — join it there.  The join is *guarded*: the first
            # joined cycle re-reads the step cell and commits only if the
            # cell confirms alignment (a cohort can die on exactly the
            # tick we read it, which would otherwise let a later waiter
            # join one tick off and break the COMMON write discipline).
            outcome = yield from _iterations(
                pid, layout, tasks, lam, step_seen + 2
            )
            if outcome != RESYNC:
                return
            last_seen = None
            same_polls = 0
            continue
        if step_seen == last_seen:
            same_polls += 1
        else:
            last_seen = step_seen
            same_polls = 1
        if same_polls >= DEAD_POLLS:
            # Nobody is active: kick-start the next iteration by placing
            # the counter two steps before its boundary; every waiter
            # (including this one) will then join in lock step.  The kick
            # must move the counter strictly forward — a cohort that died
            # at step ≡ lam-1 would otherwise be "kicked" backwards,
            # breaking the counter's monotonicity (and with it the
            # iteration tags of W's counting tree).
            kick = (step_seen // lam) * lam + (lam - 2)
            if kick <= step_seen:
                kick += lam
            yield Cycle(
                writes=(Write(step_addr, kick),), label="vw:kickstart"
            )
            last_seen = None
            same_polls = 0


def _iterations(
    pid: int,
    layout: IterativeLayout,
    tasks: TaskSet,
    lam: int,
    start_step: int,
) -> Generator[Cycle, tuple, None]:
    """Run iterations forever; return when the done flag is observed."""
    n = layout.n
    p = layout.p
    x_base = layout.x_base
    tree = layout.progress_tree
    leaves = layout.leaves
    log_l = tree.height
    chunk = layout.chunk
    k = tasks.cycles_per_task
    step_addr = layout.step_addr
    done_addr = layout.done_addr
    st = start_step
    joining = True

    def beat(extra: Tuple[Write, ...] = ()) -> Tuple[Write, ...]:
        return extra + (Write(step_addr, st),)

    def guarded(
        reads: Tuple[int, ...], payload: Tuple[Write, ...], label: str
    ) -> Cycle:
        """The join cycle: commit only if the step cell confirms sync.

        The cell must hold ``st - 2`` (frozen boundary value we joined
        on) or ``st - 1`` (a live cohort wrote it last tick).  Any other
        value means we are off by a tick — write nothing.
        """
        expected = (st - 1, st - 2)

        def writes(values: Tuple[int, ...]) -> Tuple[Write, ...]:
            if values[-1] in expected:
                return payload
            return ()

        return Cycle(reads=reads + (step_addr,), writes=writes, label=label)

    while True:
        iteration_number = st // lam

        # ---- enumerate (W only) -------------------------------------- #
        rank, total = pid, p
        if layout.has_counting_tree:
            counting = layout.counting_tree
            mult = 2 * layout.p_leaves + 1

            def decode(raw: int) -> int:
                return raw % mult if raw // mult == iteration_number else 0

            own_leaf = counting.leaf_node(pid)
            leaf_payload = beat(
                (Write(counting.address(own_leaf),
                       iteration_number * mult + 1),)
            )
            if joining:
                values = yield guarded((done_addr,), leaf_payload,
                                       "w:count-leaf")
                if values[-1] not in (st - 1, st - 2):
                    return RESYNC
                joining = False
            else:
                values = yield Cycle(
                    reads=(done_addr,), writes=leaf_payload,
                    label="w:count-leaf",
                )
            if values[0] != 0:
                return
            st += 1
            rank = 0
            node = own_leaf
            count_below = 1
            for _level in range(counting.height):
                parent = node // 2
                left, right = 2 * parent, 2 * parent + 1
                tag = iteration_number * mult

                def sum_writes(
                    values: Tuple[int, ...],
                    parent_address: int = counting.address(parent),
                    tag: int = tag,
                    step_value: int = st,
                ) -> Tuple[Write, ...]:
                    total_count = decode_pair(values, mult, iteration_number)
                    return (
                        Write(parent_address, tag + total_count),
                        Write(step_addr, step_value),
                    )

                values = yield Cycle(
                    reads=(counting.address(left), counting.address(right),
                           done_addr),
                    writes=sum_writes,
                    label="w:count-up",
                )
                left_count, right_count, done = (
                    decode(values[0]), decode(values[1]), values[2],
                )
                if done != 0:
                    return
                if node == right:
                    rank += left_count
                count_below = left_count + right_count
                node = parent
                st += 1
            total = max(1, count_below)
            rank = min(rank, total - 1)

        # ---- allocate: Theorem 3.2 balanced descent ------------------- #
        if joining:
            values = yield guarded(
                (tree.address(1), done_addr), beat(), "vw:alloc-root"
            )
            if values[-1] not in (st - 1, st - 2):
                return RESYNC
            joining = False
        else:
            values = yield Cycle(
                reads=(tree.address(1), done_addr),
                writes=beat(),
                label="vw:alloc-root",
            )
        root_count, done = values[0], values[1]
        if done != 0:
            return
        st += 1
        unvisited = leaves - root_count
        target: Optional[int] = None
        if unvisited > 0:
            target = (rank * unvisited) // total
            if target >= unvisited:
                target = target % unvisited
        node = 1
        for _level in range(log_l):
            if target is None:
                values = yield Cycle(
                    reads=(done_addr,), writes=beat(), label="vw:alloc-idle"
                )
                if values[0] != 0:
                    return
                st += 1
                continue
            left, right = 2 * node, 2 * node + 1
            values = yield Cycle(
                reads=(tree.address(left), tree.address(right), done_addr),
                writes=beat(),
                label="vw:alloc-descend",
            )
            left_done, right_done, done = values
            if done != 0:
                return
            st += 1
            left_unvisited = tree.leaves_under(left) - left_done
            right_unvisited = tree.leaves_under(right) - right_done
            remaining = left_unvisited + right_unvisited
            if remaining <= 0:
                # The parent's count was stale: this subtree is complete
                # although an ancestor believes otherwise.  Keep
                # descending (leftwards) so the bottom-up update phase
                # re-aggregates — and thereby repairs — exactly this
                # path; idling here would leave the stale count in place
                # forever and deadlock the allocation.
                node, target = left, 0
                continue
            slot_index = min(target, remaining - 1)
            if slot_index < left_unvisited:
                node, target = left, slot_index
            else:
                node, target = right, slot_index - left_unvisited
        leaf = node if target is not None else None

        # ---- work at the leaf ----------------------------------------- #
        for offset in range(chunk):
            element: Optional[int] = None
            if leaf is not None:
                element = tree.element_of(leaf) * chunk + offset
            task_cycles: List[Cycle] = []
            if element is not None and k > 0:
                task_cycles = tasks.task_cycles(element, pid)
            for index in range(k):
                if element is None:
                    values = yield Cycle(
                        reads=(done_addr,), writes=beat(), label="vw:work-idle"
                    )
                    if values[0] != 0:
                        return
                else:
                    # A task item that is not a Cycle raises the error
                    # X's program (and the machine) give for it.
                    yield _wrap_with_step(
                        expect_cycle(pid, task_cycles[index]),
                        Write(step_addr, st),
                    )
                st += 1
            if element is None:
                values = yield Cycle(
                    reads=(done_addr,), writes=beat(), label="vw:beat-idle"
                )
            else:
                values = yield Cycle(
                    reads=(done_addr,),
                    writes=beat((Write(x_base + element, 1),)),
                    label="vw:beat",
                )
            if values[0] != 0:
                return
            st += 1

        # ---- update the progress tree bottom-up ----------------------- #
        if leaf is None:
            values = yield Cycle(
                reads=(done_addr,), writes=beat(), label="vw:up-idle"
            )
        else:
            values = yield Cycle(
                reads=(done_addr,),
                writes=beat((Write(tree.address(leaf), 1),)),
                label="vw:up-leaf",
            )
        if values[0] != 0:
            return
        st += 1
        node = leaf if leaf is not None else 0
        for _level in range(log_l):
            if leaf is None:
                values = yield Cycle(
                    reads=(done_addr,), writes=beat(), label="vw:up-idle"
                )
                if values[0] != 0:
                    return
                st += 1
                continue
            parent = node // 2
            left, right = 2 * parent, 2 * parent + 1

            def up_writes(
                values: Tuple[int, ...],
                parent_address: int = tree.address(parent),
                step_value: int = st,
            ) -> Tuple[Write, ...]:
                return (
                    Write(parent_address, values[0] + values[1]),
                    Write(step_addr, step_value),
                )

            values = yield Cycle(
                reads=(tree.address(left), tree.address(right), done_addr),
                writes=up_writes,
                label="vw:up",
            )
            if values[2] != 0:
                return
            node = parent
            st += 1

        # ---- finalize: raise the done flag when the root is full ------ #
        def finalize_writes(
            values: Tuple[int, ...],
            full: int = leaves,
            step_value: int = st,
        ) -> Tuple[Write, ...]:
            if values[0] >= full:
                return (Write(done_addr, 1), Write(step_addr, step_value))
            return (Write(step_addr, step_value),)

        values = yield Cycle(
            reads=(tree.address(1), done_addr),
            writes=finalize_writes,
            label="vw:finalize",
        )
        root_count, done = values
        if done != 0 or root_count >= leaves:
            return
        st += 1


def decode_pair(values: Tuple[int, ...], mult: int, iteration: int) -> int:
    """Decode and sum two tagged counting-tree cells."""
    left = values[0] % mult if values[0] // mult == iteration else 0
    right = values[1] % mult if values[1] // mult == iteration else 0
    return left + right

# ===================================================================== #
# compiled kernel (algorithms W and V)
# ===================================================================== #

# Phase codes of the compiled stepper; one per distinct cycle shape of
# phased_program/_iterations (the two counting phases occur only in the
# W configuration, which has a counting tree).
_WAIT = 0
_KICK = 1
_COUNT_LEAF = 2
_COUNT_UP = 3
_ALLOC_ROOT = 4
_ALLOC = 5
_BEAT = 6
_UP_LEAF = 7
_UP = 8
_FINAL = 9
# The work phase's task cycles (non-trivial task sets only): a wrapped
# task cycle at a held leaf, or vw:work-idle without one.
_TASK = 10
_WORK_IDLE = 11


class PhasedKernel(CompiledProgram):
    """Compiled form of :func:`phased_program` for algorithms W and V.

    The generator's control flow (waiter/recovery loop, guarded join,
    enumerate/allocate/work/update/finalize) becomes an explicit state
    machine over the phase codes above; the per-cycle closures become
    straight-line staging over raw cells.  The layout picks the
    configuration: with a counting tree (W) every iteration starts by
    enumerating, and the guarded join lands on the counting leaf;
    without one (V) every iteration starts at the allocation root, the
    guarded join lands there, and the allocation runs on ``rank = pid``
    and ``total = P`` as in the generator.

    With a non-trivial task set (``tasks``, ``k`` cycles per task) each
    beat is preceded by a task phase: ``k`` cycles, ``task`` indexing
    the pending one, that are the element's task cycles wrapped with
    the step write (``_TASK``; user code, left to the machine through
    :data:`TASK_CYCLE`) or ``vw:work-idle`` polls when the processor
    holds no leaf (``_WORK_IDLE``).  Trivial task sets never enter it.

    ``_stage`` reads the current cycle's cells and stages its writes
    from the live state; ``quiet_step`` then delegates the transition
    to :meth:`advance`, and ``observe`` packs the staged pairs into
    ``Write`` objects, so every lane shares one source of truth for
    the state machine.
    """

    __slots__ = (
        "pid", "p", "lam", "step_addr", "done_addr", "x_base",
        "leaves", "log_l", "chunk", "d1", "head", "wait_cycle",
        "c1", "c_height", "p_leaves", "mult", "own_leaf",
        "phase", "st", "last_seen", "same_polls", "joining", "kick",
        "iteration_number", "rank", "total", "node", "count_below",
        "level", "target", "leaf", "offset", "tasks", "k", "task",
        "task_cycles",
    )

    def __init__(
        self,
        pid: int,
        layout: IterativeLayout,
        lam: int,
        tasks: Optional[TaskSet] = None,
    ) -> None:
        self.pid = pid
        #: A non-trivial task set, or None for plain Write-All.
        self.tasks = tasks
        self.k = tasks.cycles_per_task if tasks is not None else 0
        self.p = layout.p
        self.lam = lam
        self.step_addr = layout.step_addr
        self.done_addr = layout.done_addr
        self.x_base = layout.x_base
        tree = layout.progress_tree
        self.leaves = layout.leaves
        self.log_l = tree.height
        self.chunk = layout.chunk
        # tree.address(node) == base + node - 1; fold the -1 once.
        self.d1 = layout.d_base - 1
        # The waiter's poll never changes; under churn most observed
        # cycles are polls, so it is built once.
        self.wait_cycle = Cycle(
            reads=(layout.step_addr, layout.done_addr), label="vw:wait"
        )
        if layout.has_counting_tree:
            # W: every iteration (and the guarded join) starts by
            # counting live processors.
            self.head = _COUNT_LEAF
            counting = layout.counting_tree
            self.c1 = layout.c_base - 1
            self.c_height = counting.height
            self.p_leaves = layout.p_leaves
            self.mult = 2 * layout.p_leaves + 1
            self.own_leaf = counting.leaf_node(pid)
        else:
            # V: no enumeration; iterations start at the allocation root.
            self.head = _ALLOC_ROOT
            self.c1 = self.c_height = self.p_leaves = self.mult = 0
            self.own_leaf = 0
        self.live = False
        self.reset()

    def reset(self) -> bool:
        # A (re)started processor knows only its PID: it re-enters the
        # waiter loop and joins (or kick-starts) an iteration from the
        # shared step cell.  The remaining state fields are dead until
        # the phases that set them.
        self.phase = _WAIT
        self.st = 0
        self.last_seen = None
        self.same_polls = 0
        self.joining = False
        self.kick = 0
        self.iteration_number = 0
        # The generator's ``rank, total = pid, p``: V allocates on these;
        # W overwrites both in its counting phases.
        self.rank = self.pid
        self.total = self.p
        self.node = 0
        self.count_below = 0
        self.level = 0
        self.target = None
        self.leaf = None
        self.offset = 0
        self.task = 0
        self.task_cycles = None
        self.live = True
        return True

    # -- the state machine (shared by both lanes) ---------------------- #

    def advance(self, values: tuple) -> bool:
        phase = self.phase
        if phase == _BEAT:
            if values[0] != 0:
                self.live = False
                return False
            self.st += 1
            offset = self.offset + 1
            self.offset = offset
            if offset >= self.chunk:
                self.phase = _UP_LEAF
            elif self.k:
                self._start_work()
            return True
        if phase == _ALLOC:
            if self.target is None:
                if values[0] != 0:
                    self.live = False
                    return False
                self.st += 1
            else:
                if values[2] != 0:
                    self.live = False
                    return False
                self.st += 1
                left = 2 * self.node
                under = self.leaves >> (left.bit_length() - 1)
                left_unvisited = under - values[0]
                right_unvisited = under - values[1]
                remaining = left_unvisited + right_unvisited
                if remaining <= 0:
                    # Stale parent count: keep descending leftwards so
                    # the update phase repairs this path (see the
                    # generator's comment).
                    self.node, self.target = left, 0
                else:
                    slot = min(self.target, remaining - 1)
                    if slot < left_unvisited:
                        self.node, self.target = left, slot
                    else:
                        self.node, self.target = left + 1, slot - left_unvisited
            self.level += 1
            if self.level >= self.log_l:
                self._finish_alloc()
            return True
        if phase == _UP:
            if self.leaf is None:
                if values[0] != 0:
                    self.live = False
                    return False
            else:
                if values[2] != 0:
                    self.live = False
                    return False
                self.node //= 2
            self.st += 1
            self.level += 1
            if self.level >= self.log_l:
                self.phase = _FINAL
            return True
        if phase == _COUNT_UP:
            if values[2] != 0:
                self.live = False
                return False
            mult = self.mult
            iteration = self.iteration_number
            raw = values[0]
            left = raw % mult if raw // mult == iteration else 0
            raw = values[1]
            right = raw % mult if raw // mult == iteration else 0
            node = self.node
            if node & 1:  # node is its parent's right child
                self.rank += left
            self.count_below = left + right
            self.node = node // 2
            self.st += 1
            self.level += 1
            if self.level >= self.c_height:
                total = self.count_below
                if total < 1:
                    total = 1
                self.total = total
                if self.rank > total - 1:
                    self.rank = total - 1
                self.phase = _ALLOC_ROOT
            return True
        if phase == _WAIT:
            step_seen, done = values[0], values[1]
            if done != 0:
                self.live = False
                return False
            lam = self.lam
            if step_seen % lam == lam - 2:
                st = step_seen + 2
                self.st = st
                self.joining = True
                self.iteration_number = st // lam
                self.phase = self.head
                return True
            if step_seen == self.last_seen:
                self.same_polls += 1
            else:
                self.last_seen = step_seen
                self.same_polls = 1
            if self.same_polls >= DEAD_POLLS:
                kick = (step_seen // lam) * lam + (lam - 2)
                if kick <= step_seen:
                    kick += lam
                self.kick = kick
                self.phase = _KICK
            return True
        if phase == _COUNT_LEAF:
            if self.joining:
                if values[-1] not in (self.st - 1, self.st - 2):
                    self._resync()
                    return True
                self.joining = False
            if values[0] != 0:
                self.live = False
                return False
            self.st += 1
            self.rank = 0
            self.node = self.own_leaf
            self.count_below = 1
            self.level = 0
            if self.c_height == 0:
                self.total = 1
                self.phase = _ALLOC_ROOT
            else:
                self.phase = _COUNT_UP
            return True
        if phase == _UP_LEAF:
            if values[0] != 0:
                self.live = False
                return False
            self.st += 1
            self.node = self.leaf if self.leaf is not None else 0
            self.level = 0
            self.phase = _UP if self.log_l > 0 else _FINAL
            return True
        if phase == _ALLOC_ROOT:
            if self.joining:
                # V's guarded join (W's lands on the counting leaf).
                if values[-1] not in (self.st - 1, self.st - 2):
                    self._resync()
                    return True
                self.joining = False
            root_count, done = values[0], values[1]
            if done != 0:
                self.live = False
                return False
            self.st += 1
            unvisited = self.leaves - root_count
            if unvisited > 0:
                target = (self.rank * unvisited) // self.total
                if target >= unvisited:
                    target %= unvisited
                self.target = target
            else:
                self.target = None
            self.node = 1
            self.level = 0
            if self.log_l == 0:
                self._finish_alloc()
            else:
                self.phase = _ALLOC
            return True
        if phase == _FINAL:
            root_count, done = values[0], values[1]
            if done != 0 or root_count >= self.leaves:
                self.live = False
                return False
            self.st += 1
            self.iteration_number = self.st // self.lam
            self.phase = self.head
            return True
        if phase == _TASK:
            # The generator reads nothing back from a task cycle.
            self.st += 1
            self._next_task()
            return True
        if phase == _WORK_IDLE:
            if values[0] != 0:
                self.live = False
                return False
            self.st += 1
            self._next_task()
            return True
        # phase == _KICK: the kick cycle has no reads; resume polling.
        self.last_seen = None
        self.same_polls = 0
        self.phase = _WAIT
        return True

    def _resync(self) -> None:
        """RESYNC: the guarded join was off by a tick — wait again."""
        self.phase = _WAIT
        self.last_seen = None
        self.same_polls = 0
        self.joining = False

    def _finish_alloc(self) -> None:
        self.leaf = self.node if self.target is not None else None
        self.offset = 0
        if self.k:
            self._start_work()
        else:
            self.phase = _BEAT

    def _start_work(self) -> None:
        """Enter the task phase of the current element (the generator
        fetches the task's cycles here, before the first one)."""
        self.task = 0
        leaf = self.leaf
        if leaf is None:
            self.phase = _WORK_IDLE
            return
        element = (leaf - self.leaves) * self.chunk + self.offset
        cycles = self.tasks.task_cycles(element, self.pid)
        expect_cycle(self.pid, cycles[0])
        self.task_cycles = cycles
        self.phase = _TASK

    def _next_task(self) -> None:
        task = self.task + 1
        if task >= self.k:
            self.phase = _BEAT
            return
        self.task = task
        if self.phase == _TASK:
            expect_cycle(self.pid, self.task_cycles[task])

    # -- fused quiet lane ---------------------------------------------- #

    def quiet_step(self, cells: Sequence[int], out: List[int]) -> int:
        if self.phase == _TASK:
            return TASK_CYCLE
        values = self._stage(cells, out)
        self.advance(values)
        return len(values)  # every W read is a real (charged) read

    def observe(
        self, cells: Sequence[int]
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[Write, ...], int]]:
        phase = self.phase
        if phase == _WAIT:
            # Most observed cycles under churn: restarted processors
            # poll until the next iteration boundary.
            return (cells[self.step_addr], cells[self.done_addr]), (), 2
        if phase == _TASK:
            return None  # a task cycle: the machine interprets it
        staged: List[int] = []
        values = self._stage(cells, staged)
        # At most two writes: build them directly (a generator
        # expression here cost adversary ticks more than the staging).
        count = len(staged)
        if count == 4:
            writes: Tuple[Write, ...] = (
                Write(staged[0], staged[1]), Write(staged[2], staged[3])
            )
        elif count == 2:
            writes = (Write(staged[0], staged[1]),)
        else:
            writes = ()
        return values, writes, len(values)

    def _stage(self, cells: Sequence[int], out: List[int]) -> tuple:
        """Read the current cycle's cells and stage its writes.

        Appends the writes to ``out`` as flat ``address, value`` pairs
        and returns the read values; the state is left untouched, so
        :meth:`quiet_step` (then advancing) and :meth:`observe` (not)
        share one evaluation of each phase.
        """
        phase = self.phase
        step_addr = self.step_addr
        done_addr = self.done_addr
        st = self.st
        if phase == _BEAT:
            v0 = cells[done_addr]
            leaf = self.leaf
            if leaf is not None:
                element = (leaf - self.leaves) * self.chunk + self.offset
                out.append(self.x_base + element)
                out.append(1)
            out.append(step_addr)
            out.append(st)
            return (v0,)
        if phase == _ALLOC:
            if self.target is None:
                v0 = cells[done_addr]
                out.append(step_addr)
                out.append(st)
                return (v0,)
            left_addr = self.d1 + 2 * self.node
            v0 = cells[left_addr]
            v1 = cells[left_addr + 1]
            v2 = cells[done_addr]
            out.append(step_addr)
            out.append(st)
            return (v0, v1, v2)
        if phase == _UP:
            if self.leaf is None:
                v0 = cells[done_addr]
                out.append(step_addr)
                out.append(st)
                return (v0,)
            parent = self.node // 2
            left_addr = self.d1 + 2 * parent
            v0 = cells[left_addr]
            v1 = cells[left_addr + 1]
            v2 = cells[done_addr]
            out.append(self.d1 + parent)
            out.append(v0 + v1)
            out.append(step_addr)
            out.append(st)
            return (v0, v1, v2)
        if phase == _COUNT_UP:
            parent = self.node // 2
            left_addr = self.c1 + 2 * parent
            v0 = cells[left_addr]
            v1 = cells[left_addr + 1]
            v2 = cells[done_addr]
            mult = self.mult
            iteration = self.iteration_number
            left = v0 % mult if v0 // mult == iteration else 0
            right = v1 % mult if v1 // mult == iteration else 0
            out.append(self.c1 + parent)
            out.append(iteration * mult + left + right)
            out.append(step_addr)
            out.append(st)
            return (v0, v1, v2)
        if phase == _WAIT:
            v0 = cells[step_addr]
            v1 = cells[done_addr]
            return (v0, v1)
        if phase == _COUNT_LEAF:
            payload_value = self.iteration_number * self.mult + 1
            if self.joining:
                v0 = cells[done_addr]
                v1 = cells[step_addr]
                if v1 == st - 1 or v1 == st - 2:
                    out.append(self.c1 + self.own_leaf)
                    out.append(payload_value)
                    out.append(step_addr)
                    out.append(st)
                return (v0, v1)
            v0 = cells[done_addr]
            out.append(self.c1 + self.own_leaf)
            out.append(payload_value)
            out.append(step_addr)
            out.append(st)
            return (v0,)
        if phase == _UP_LEAF:
            v0 = cells[done_addr]
            leaf = self.leaf
            if leaf is not None:
                out.append(self.d1 + leaf)
                out.append(1)
            out.append(step_addr)
            out.append(st)
            return (v0,)
        if phase == _ALLOC_ROOT:
            v0 = cells[self.d1 + 1]
            v1 = cells[done_addr]
            if self.joining:
                v2 = cells[step_addr]
                if v2 == st - 1 or v2 == st - 2:
                    out.append(step_addr)
                    out.append(st)
                return (v0, v1, v2)
            out.append(step_addr)
            out.append(st)
            return (v0, v1)
        if phase == _FINAL:
            v0 = cells[self.d1 + 1]
            v1 = cells[done_addr]
            if v0 >= self.leaves:
                out.append(done_addr)
                out.append(1)
            out.append(step_addr)
            out.append(st)
            return (v0, v1)
        if phase == _WORK_IDLE:
            v0 = cells[done_addr]
            out.append(step_addr)
            out.append(st)
            return (v0,)
        # phase == _KICK (never _TASK: the machine interprets those)
        out.append(step_addr)
        out.append(self.kick)
        return ()

    # -- observable lane ------------------------------------------------ #

    def current_cycle(self) -> Cycle:
        phase = self.phase
        if phase == _WAIT:
            return self.wait_cycle
        step_addr = self.step_addr
        if phase == _KICK:
            return Cycle(
                writes=(Write(step_addr, self.kick),), label="vw:kickstart"
            )
        done_addr = self.done_addr
        step_write = Write(step_addr, self.st)
        if phase == _BEAT:
            leaf = self.leaf
            if leaf is None:
                return Cycle(
                    reads=(done_addr,), writes=(step_write,),
                    label="vw:beat-idle",
                )
            element = (leaf - self.leaves) * self.chunk + self.offset
            return Cycle(
                reads=(done_addr,),
                writes=(Write(self.x_base + element, 1), step_write),
                label="vw:beat",
            )
        if phase == _ALLOC:
            if self.target is None:
                return Cycle(
                    reads=(done_addr,), writes=(step_write,),
                    label="vw:alloc-idle",
                )
            left_addr = self.d1 + 2 * self.node
            return Cycle(
                reads=(left_addr, left_addr + 1, done_addr),
                writes=(step_write,),
                label="vw:alloc-descend",
            )
        if phase == _UP:
            if self.leaf is None:
                return Cycle(
                    reads=(done_addr,), writes=(step_write,),
                    label="vw:up-idle",
                )
            parent = self.node // 2
            left_addr = self.d1 + 2 * parent

            def up_writes(
                values: Tuple[int, ...],
                parent_address: int = self.d1 + parent,
                step_write: Write = step_write,
            ) -> Tuple[Write, ...]:
                return (Write(parent_address, values[0] + values[1]), step_write)

            return Cycle(
                reads=(left_addr, left_addr + 1, done_addr),
                writes=up_writes,
                label="vw:up",
            )
        if phase == _COUNT_UP:
            parent = self.node // 2
            left_addr = self.c1 + 2 * parent

            def sum_writes(
                values: Tuple[int, ...],
                parent_address: int = self.c1 + parent,
                mult: int = self.mult,
                iteration: int = self.iteration_number,
                step_write: Write = step_write,
            ) -> Tuple[Write, ...]:
                total_count = decode_pair(values, mult, iteration)
                return (
                    Write(parent_address, iteration * mult + total_count),
                    step_write,
                )

            return Cycle(
                reads=(left_addr, left_addr + 1, done_addr),
                writes=sum_writes,
                label="w:count-up",
            )
        if phase == _COUNT_LEAF:
            payload = (
                Write(self.c1 + self.own_leaf,
                      self.iteration_number * self.mult + 1),
                step_write,
            )
            if self.joining:
                return self._guarded((done_addr,), payload, "w:count-leaf")
            return Cycle(
                reads=(done_addr,), writes=payload, label="w:count-leaf"
            )
        if phase == _UP_LEAF:
            leaf = self.leaf
            if leaf is None:
                return Cycle(
                    reads=(done_addr,), writes=(step_write,),
                    label="vw:up-idle",
                )
            return Cycle(
                reads=(done_addr,),
                writes=(Write(self.d1 + leaf, 1), step_write),
                label="vw:up-leaf",
            )
        if phase == _ALLOC_ROOT:
            reads = (self.d1 + 1, done_addr)
            if self.joining:
                return self._guarded(reads, (step_write,), "vw:alloc-root")
            return Cycle(
                reads=reads, writes=(step_write,), label="vw:alloc-root"
            )
        if phase == _TASK:
            return _wrap_with_step(self.task_cycles[self.task], step_write)
        if phase == _WORK_IDLE:
            return Cycle(
                reads=(done_addr,), writes=(step_write,),
                label="vw:work-idle",
            )
        # phase == _FINAL

        def finalize_writes(
            values: Tuple[int, ...],
            full: int = self.leaves,
            done_addr: int = done_addr,
            step_write: Write = step_write,
        ) -> Tuple[Write, ...]:
            if values[0] >= full:
                return (Write(done_addr, 1), step_write)
            return (step_write,)

        return Cycle(
            reads=(self.d1 + 1, done_addr),
            writes=finalize_writes,
            label="vw:finalize",
        )

    def _guarded(
        self, reads: Tuple[int, ...], payload: Tuple[Write, ...], label: str
    ) -> Cycle:
        """The join cycle (the generator's ``guarded``): the step cell is
        read last, and the payload commits only if it confirms sync."""
        expected = (self.st - 1, self.st - 2)

        def guarded_writes(
            values: Tuple[int, ...],
            expected: Tuple[int, int] = expected,
            payload: Tuple[Write, ...] = payload,
        ) -> Tuple[Write, ...]:
            if values[-1] in expected:
                return payload
            return ()

        return Cycle(
            reads=reads + (self.step_addr,), writes=guarded_writes,
            label=label,
        )
