"""Algorithm X (Section 4.2 and the appendix of the paper).

X is the paper's new Write-All algorithm whose completed work is bounded
for *any* failure/restart pattern: ``S = O(N * P^{log(3/2)+delta})``
(Theorem 4.7), i.e. sub-quadratic, with a matching stalking-adversary
lower bound of ``Omega(N^{log 3})`` at ``P = N`` (Theorem 4.8).

Structure (Figure 5): a progress heap ``d[1 .. 2N-1]`` over the input
array ``x[1 .. N]``; each processor independently walks the tree, storing
its position in the shared array ``w[0 .. P-1]``:

* at a node marked done — move up;
* at an unvisited leaf — perform the work, then mark the leaf done;
* at an interior node — mark it done if both children are, descend into
  a single undone child, or, when *both* are undone, descend left/right
  according to the PID bit at the node's depth (MSB first).

Each loop body is one update cycle: at most 4 reads (``w[PID]``,
``d[where]``, and either the leaf's ``x`` cell or the two children), a
fixed compute, and exactly one write.  Two properties carry the
fault-tolerance story:

* the position array ``w`` lives in shared memory, so a restarted
  processor resumes exactly where it stopped ([SS 83] action/recovery,
  Remark 6) — no free teleports back to the initial leaf, which is what
  keeps the work bounded under restarts;
* *every* cycle writes (position value 0 means "not yet initialized" and
  triggers the initial leaf assignment; the sentinel ``2N`` means
  "exited").  There is no repeatable read-only cycle an adversary could
  let complete for free, so the model's progress condition ("at least
  one update cycle completes at any time") forces genuine progress —
  this is why X terminates under arbitrary failure/restart patterns
  (Lemma 4.4) while algorithm V, whose restarted processors poll
  read-only while waiting, can be starved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.core.base import BaseLayout, WriteAllAlgorithm, default_tasks
from repro.core.tasks import TaskSet
from repro.core.trees import HeapTree
from repro.pram.compiled import TASK_CYCLE, CompiledProgram
from repro.pram.cycles import Cycle, Write, expect_cycle
from repro.util.bits import bit_length_of_power, is_power_of_two, msb_first_bit
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class XLayout(BaseLayout):
    """Shared-memory plan: ``x`` | ``d`` heap | ``w`` positions."""

    d_base: int = 0
    w_base: int = 0

    @property
    def tree(self) -> HeapTree:
        return HeapTree(base=self.d_base, leaves=self.n)

    @property
    def exit_marker(self) -> int:
        """The ``w`` value of a processor that has left the tree."""
        return 2 * self.n

    @property
    def position_mult(self) -> int:
        """Tag multiplier of a generation-tagged position:
        ``w = g * position_mult + node`` (:mod:`repro.core.generational`).

        Positions range over 1..2N-1 plus the exit marker 2N, so the
        multiplier must exceed 2N.
        """
        return 2 * self.n + 1


#: Routing rules for the "both subtrees undone" case.  The paper's X
#: uses the PID bit at the node's depth; the alternatives exist for the
#: ablation study (bench scenario ``A1_x_routing``, claims
#: ``A1.pid_vs_left``/``A1.pid_vs_right``) showing why the PID split
#: matters.
ROUTING_RULES = ("pid", "left", "right", "random")


class AlgorithmX(WriteAllAlgorithm):
    """The appendix's algorithm X, generalized over task sets.

    ``routing`` selects the both-children-undone descent rule: "pid"
    (the paper's balanced PID-bit split), "left"/"right" (everyone
    piles into one subtree), or "random" (a stateless hash coin —
    balanced in expectation but uncoordinated, so processors following
    it do not partition the tree the way PID bits do).
    """

    name = "X"

    def __init__(self, routing: str = "pid", spread: bool = False) -> None:
        if routing not in ROUTING_RULES:
            raise ValueError(
                f"unknown routing {routing!r}; options: {ROUTING_RULES}"
            )
        self.routing = routing
        #: Remark 5(i): space the P processors N/P leaves apart instead
        #: of packing them into the first P leaves (Theorem 4.7's proof
        #: layout).  "Our worst case analysis does not benefit from
        #: these modifications" — but failure-free runs with P < N do.
        self.spread = spread
        if routing != "pid" or spread:
            tags = [routing] if routing != "pid" else []
            tags += ["spread"] if spread else []
            self.name = f"X[{','.join(tags)}]"

    def build_layout(self, n: int, p: int) -> XLayout:
        if not is_power_of_two(n):
            raise ValueError(f"algorithm X needs power-of-two n, got {n}")
        x_base = 0
        d_base = n
        w_base = d_base + (2 * n - 1)
        size = w_base + p
        return XLayout(
            n=n, p=p, x_base=x_base, size=size,
            d_base=d_base, w_base=w_base,
        )

    def program(
        self, layout: XLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)

        routing = self.routing
        spread = self.spread

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            return _x_program(pid, layout, tasks, routing, spread)

        return factory

    def compiled_program(
        self, layout: XLayout, tasks: Optional[TaskSet] = None
    ) -> Optional[Callable[[int], "XKernel"]]:
        tasks = default_tasks(tasks)
        task_set = tasks if tasks.cycles_per_task != 0 else None
        routing = self.routing
        spread = self.spread

        def factory(pid: int) -> XKernel:
            return XKernel(pid, layout, routing, spread, task_set)

        return factory


def _x_initial_leaf(pid: int, layout: XLayout, spread: bool) -> int:
    """The node a position-0 processor takes as its first leaf."""
    n = layout.n
    if spread and layout.p < n:
        return n + (pid * (n // layout.p)) % n
    return n + (pid % n)


def _x_cycle_body(
    pid: int,
    layout: XLayout,
    routing: str,
    spread: bool,
    trivial: bool,
    generation: int = 0,
) -> Tuple[tuple, Callable[[Tuple[int, ...]], Tuple[Write, ...]]]:
    """Build the (reads, writes) body of X's single update cycle.

    Shared by the generator program and :class:`XKernel`'s materialized
    cycles, so both lanes are observationally identical by construction.

    ``generation`` g runs the walk over [Shv 89]'s generation-tagged
    structures (:mod:`repro.core.generational`).  A position is stored
    as ``g * position_mult + node``, and a position with any other tag
    reads as "not yet entered".  Cells are marked with ``max(g, 1)``,
    and a cell counts as unmarked while it holds a value in
    ``[0, mark)``.  At ``g = 0`` this is plain X: positions are bare
    nodes, marks are 1, and "unmarked" means ``== 0`` (so a poisoned
    cell reads as visited).
    """
    n = layout.n
    x_base = layout.x_base
    tree = layout.tree
    w_address = layout.w_base + pid
    exit_marker = layout.exit_marker
    log_n = bit_length_of_power(n)
    route_pid = pid % n
    initial_leaf = _x_initial_leaf(pid, layout, spread)
    tag = generation * layout.position_mult
    mark = max(generation, 1)

    def read_done(so_far: Tuple[int, ...]) -> Optional[int]:
        where = so_far[0] - tag
        return tree.address(where) if 1 <= where < exit_marker else None

    def read_third(so_far: Tuple[int, ...]) -> Optional[int]:
        where = so_far[0] - tag
        if not 1 <= where < exit_marker or not 0 <= so_far[1] < mark:
            return None
        if where >= n:  # leaf: read its x element
            return x_base + (where - n)
        return tree.address(2 * where)  # interior: left child

    def read_fourth(so_far: Tuple[int, ...]) -> Optional[int]:
        where = so_far[0] - tag
        if not 1 <= where < n or not 0 <= so_far[1] < mark:
            return None
        return tree.address(2 * where + 1)  # interior: right child

    body_reads = (w_address, read_done, read_third, read_fourth)

    def body_writes(values: Tuple[int, ...]) -> Tuple[Write, ...]:
        where, done, third, fourth = values
        where -= tag
        if not 0 < where <= exit_marker:
            # First cycle of this walk: take the initial leaf assignment.
            return (Write(w_address, tag + initial_leaf),)
        if where == exit_marker:
            # Final cycle before halting (idempotent rewrite, so even
            # this cycle is not a free read-only completion).
            return (Write(w_address, tag + exit_marker),)
        if not 0 <= done < mark:
            parent = where // 2
            return (
                Write(w_address, tag + (parent if parent >= 1 else exit_marker)),
            )  # move up one level / leave the tree
        if where >= n:  # at a leaf
            element = where - n
            if 0 <= third < mark:  # leaf not yet visited
                if trivial:
                    return (Write(x_base + element, mark),)
                # Non-trivial task: the task cycles emitted below do the
                # work; rewrite the position so this cycle still writes.
                return (Write(w_address, tag + where),)
            return (Write(tree.address(where), mark),)  # indicate "done"
        # interior node, not done
        left_done = not 0 <= third < mark
        right_done = not 0 <= fourth < mark
        if left_done and right_done:
            return (Write(tree.address(where), mark),)  # both children done
        if right_done:
            return (Write(w_address, tag + 2 * where),)  # go left
        if left_done:
            return (Write(w_address, tag + 2 * where + 1),)  # go right
        # both subtrees not done: move down according to the routing rule
        if routing == "pid":
            bit = msb_first_bit(route_pid, tree.depth(where), log_n)
        elif routing == "left":
            bit = 0
        elif routing == "right":
            bit = 1
        else:  # "random": a stateless coin keyed by (pid, node)
            bit = derive_seed(pid, where) & 1
        return (Write(w_address, tag + 2 * where + bit),)

    return body_reads, body_writes


def _x_program(
    pid: int,
    layout: XLayout,
    tasks: TaskSet,
    routing: str = "pid",
    spread: bool = False,
    generation: int = 0,
) -> Generator[Cycle, tuple, None]:
    """X's walk for one processor: generation ``generation``'s walk
    (see :func:`_x_cycle_body`), which returns once the processor
    leaves the tree."""
    n = layout.n
    x_base = layout.x_base
    exit_marker = layout.exit_marker
    trivial = tasks.cycles_per_task == 0
    body_reads, body_writes = _x_cycle_body(
        pid, layout, routing, spread, trivial, generation
    )
    tag = generation * layout.position_mult
    mark = max(generation, 1)

    while True:
        values = yield Cycle(reads=body_reads, writes=body_writes, label="x:step")
        where, done, third, _fourth = values
        where -= tag
        if where == exit_marker:
            return  # exited the tree: the processor halts
        if (
            not trivial and n <= where < exit_marker
            and 0 <= done < mark and 0 <= third < mark
        ):
            # Unvisited leaf with a non-trivial task: run its cycles,
            # then mark x (the marking cycle makes re-execution after a
            # mid-task failure safe — x stays unmarked until the task
            # finished).
            element = where - n
            for task_cycle in tasks.task_cycles(element, pid):
                # Checked here, not only by the machine, so that inside
                # V+X's interleave a bad item fails on X's own turn.
                yield expect_cycle(pid, task_cycle)
            yield Cycle(
                writes=(Write(x_base + element, mark),),
                label="x:mark",
            )


class XKernel(CompiledProgram):
    """Compiled form of X's loop: the update cycle and the task sub-loop.

    X keeps all of its recovery state in shared memory (the position
    array ``w``), so between update cycles the kernel is stateless:
    ``reset()`` only drops a task in progress, and a restarted stepper
    is indistinguishable from a fresh one — exactly the [SS 83]
    recovery property the algorithm is built on.  ``quiet_step``
    re-implements the cycle body over raw cells with no
    ``Cycle``/``Write`` allocation; the materialized cycle for observed
    ticks reuses the *same* body closures as the generator program
    (:func:`_x_cycle_body`), so both lanes agree by construction.

    With a non-trivial task set (``tasks``), an unvisited leaf's cycle
    rewrites ``w[pid]`` and the stepper enters the task: ``task_cycles``
    holds the element's cycles, ``task`` indexes the pending one, and
    ``task == len(task_cycles)`` is the ``x:mark`` cycle.  Task cycles
    are user code, left to the machine (:data:`TASK_CYCLE`).  ``task``
    is None in the update-cycle state, the only state trivial task sets
    reach; checking it is all the task sub-loop adds to their
    ``quiet_step``.
    """

    __slots__ = (
        "pid", "layout", "routing", "spread", "n", "x_base", "d1",
        "w_address", "exit_marker", "log_n", "route_pid", "route_code",
        "initial_leaf", "_cycle", "tasks", "task", "task_cycles",
        "element",
    )

    _ROUTE_CODES = {"pid": 0, "left": 1, "right": 2, "random": 3}

    def __init__(
        self,
        pid: int,
        layout: XLayout,
        routing: str,
        spread: bool,
        tasks: Optional[TaskSet] = None,
    ) -> None:
        self.pid = pid
        self.layout = layout
        self.routing = routing
        self.spread = spread
        n = layout.n
        self.n = n
        self.x_base = layout.x_base
        # tree.address(node) == d_base + node - 1; fold the -1 once.
        self.d1 = layout.d_base - 1
        self.w_address = layout.w_base + pid
        self.exit_marker = layout.exit_marker
        self.log_n = bit_length_of_power(n)
        self.route_pid = pid % n
        self.route_code = self._ROUTE_CODES[routing]
        self.initial_leaf = _x_initial_leaf(pid, layout, spread)
        self._cycle: Optional[Cycle] = None
        #: A non-trivial task set, or None for plain Write-All.
        self.tasks = tasks
        self.task: Optional[int] = None
        self.task_cycles: Sequence[Cycle] = ()
        self.element = 0
        self.live = False

    def reset(self) -> bool:
        # All recovery state lives in shared memory (w[pid]): a task in
        # progress is lost, and the leaf's x cell (still 0) makes the
        # update cycle enter it again.  X never halts at spawn.
        self.task = None
        self.task_cycles = ()
        self.live = True
        return True

    def current_cycle(self) -> Cycle:
        task = self.task
        if task is not None:
            if task < len(self.task_cycles):
                return self.task_cycles[task]
            return Cycle(
                writes=(Write(self.x_base + self.element, 1),),
                label="x:mark",
            )
        cycle = self._cycle
        if cycle is None:
            body_reads, body_writes = _x_cycle_body(
                self.pid, self.layout, self.routing, self.spread,
                self.tasks is None,
            )
            cycle = Cycle(reads=body_reads, writes=body_writes, label="x:step")
            self._cycle = cycle
        return cycle

    def _enter_task(self, element: int) -> None:
        """Start the task at ``element`` (the generator's sub-loop)."""
        cycles = self.tasks.task_cycles(element, self.pid)
        if cycles:
            expect_cycle(self.pid, cycles[0])
        self.task_cycles = cycles
        self.element = element
        self.task = 0

    def _advance_task(self) -> None:
        """Complete the pending task or mark cycle."""
        task = self.task + 1
        count = len(self.task_cycles)
        if task < count:
            expect_cycle(self.pid, self.task_cycles[task])
            self.task = task
        elif task == count:
            self.task = task  # the x:mark cycle is next
        else:
            self.task = None  # marked: back to the update cycle

    def advance(self, values: Tuple[int, ...]) -> bool:
        if self.task is not None:
            self._advance_task()
            return True
        where = values[0]
        if where == self.exit_marker:
            self.live = False
            return False
        if (
            self.tasks is not None and where >= self.n
            and values[1] == 0 and values[2] == 0
        ):
            self._enter_task(where - self.n)  # an unvisited leaf
        return True

    def observe(
        self, cells: Sequence[int]
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[Write, ...], int]]:
        task = self.task
        if task is not None:
            if task < len(self.task_cycles):
                return None  # a task cycle: the machine interprets it
            return (), (Write(self.x_base + self.element, 1),), 0
        # quiet_step's reads and branches, returning a Write instead of
        # staging a flat pair (and leaving the state alone).
        w_address = self.w_address
        where = cells[w_address]
        reads = 1
        exit_marker = self.exit_marker
        n = self.n
        d1 = self.d1
        done = 0
        third = 0
        fourth = 0
        if 1 <= where < exit_marker:
            done = cells[d1 + where]
            reads += 1
            if done == 0:
                if where >= n:  # leaf: read its x element
                    third = cells[self.x_base + (where - n)]
                    reads += 1
                else:  # interior: read both children
                    third = cells[d1 + 2 * where]
                    fourth = cells[d1 + 2 * where + 1]
                    reads += 2
        if where == 0:
            write = Write(w_address, self.initial_leaf)
        elif where == exit_marker:
            write = Write(w_address, exit_marker)
        elif done != 0:
            parent = where // 2
            write = Write(w_address, parent if parent >= 1 else exit_marker)
        elif where >= n:  # at a leaf
            if third != 0:
                write = Write(d1 + where, 1)  # indicate "done"
            elif self.tasks is None:  # leaf not yet visited
                write = Write(self.x_base + (where - n), 1)
            else:  # the task's cycles follow; rewrite the position
                write = Write(w_address, where)
        elif third != 0 and fourth != 0:
            write = Write(d1 + where, 1)  # both children done
        elif third == 0 and fourth != 0:
            write = Write(w_address, 2 * where)  # go left
        elif third != 0:
            write = Write(w_address, 2 * where + 1)  # go right
        else:
            write = Write(w_address, 2 * where + self._route_bit(where))
        return (where, done, third, fourth), (write,), reads

    def _route_bit(self, where: int) -> int:
        """The routing rule's child for an interior node with both
        subtrees undone (0 = left, 1 = right)."""
        code = self.route_code
        if code == 0:  # the paper's MSB-first PID bit at this depth
            depth = where.bit_length() - 1
            return (self.route_pid >> (self.log_n - 1 - depth)) & 1
        if code == 1:
            return 0
        if code == 2:
            return 1
        return derive_seed(self.pid, where) & 1

    def quiet_step(self, cells: Sequence[int], out: List[int]) -> int:
        task = self.task
        if task is not None:
            if task < len(self.task_cycles):
                return TASK_CYCLE
            out.append(self.x_base + self.element)  # x:mark
            out.append(1)
            self._advance_task()
            return 0
        w_address = self.w_address
        where = cells[w_address]
        reads = 1
        exit_marker = self.exit_marker
        n = self.n
        d1 = self.d1
        done = 0
        third = 0
        fourth = 0
        in_tree = 1 <= where < exit_marker
        if in_tree:
            done = cells[d1 + where]
            reads += 1
            if done == 0:
                if where >= n:  # leaf: read its x element
                    third = cells[self.x_base + (where - n)]
                    reads += 1
                else:  # interior: read both children
                    third = cells[d1 + 2 * where]
                    fourth = cells[d1 + 2 * where + 1]
                    reads += 2
        # Mirror _x_cycle_body's body_writes branch for branch.
        if where == 0:
            out.append(w_address)
            out.append(self.initial_leaf)
        elif where == exit_marker:
            out.append(w_address)
            out.append(exit_marker)
            self.live = False
        elif done != 0:
            parent = where // 2
            out.append(w_address)
            out.append(parent if parent >= 1 else exit_marker)
        elif where >= n:  # at a leaf
            if third != 0:
                out.append(d1 + where)  # indicate "done"
                out.append(1)
            elif self.tasks is None:  # leaf not yet visited
                out.append(self.x_base + (where - n))
                out.append(1)
            else:
                # The task's cycles follow: rewrite the position, then
                # enter the task (after staging, so a task set that
                # raises leaves this cycle's write staged).
                out.append(w_address)
                out.append(where)
                self._enter_task(where - n)
        elif third != 0 and fourth != 0:
            out.append(d1 + where)  # both children done
            out.append(1)
        elif third == 0 and fourth != 0:
            out.append(w_address)
            out.append(2 * where)  # go left
        elif third != 0:
            out.append(w_address)
            out.append(2 * where + 1)  # go right
        else:
            # both subtrees not done: the routing rule picks a child.
            # _route_bit is inlined and this body is not shared with
            # observe: deriving both from one W-style _stage measured
            # quiet X@none 2^14x64 16-24% slower (docs/PERFORMANCE.md).
            code = self.route_code
            if code == 0:  # the paper's MSB-first PID bit at this depth
                depth = where.bit_length() - 1
                bit = (self.route_pid >> (self.log_n - 1 - depth)) & 1
            elif code == 1:
                bit = 0
            elif code == 2:
                bit = 1
            else:
                bit = derive_seed(self.pid, where) & 1
            out.append(w_address)
            out.append(2 * where + bit)
        return reads
