"""Struct-of-arrays vector programs for trivial and W.

Each class here is the :class:`~repro.pram.vectorized.VectorProgram`
form of an existing compiled kernel: the scalar kernel's explicit state
fields become int64/bool columns indexed by PID, and a fused quiet
window advances every running lane per tick with masked array
operations instead of one Python ``quiet_step`` call per processor.
``None``-valued scalar fields are encoded as ``-1`` (every such field
is otherwise non-negative), and ``pack_lane``/``unpack_lane`` round-trip
the scalar state exactly.

The semantics are a transliteration of the corresponding kernels —
:class:`~repro.core.trivial.TrivialKernel` and
:class:`~repro.core.iterative.PhasedKernel` — phase by phase and branch
by branch; the differential suite's forced-vector leg enforces the
equivalence.  X ships no vector program: the dispatch cost model kept
every X window of the end-to-end workloads scalar.  This module
imports numpy unconditionally: it is only ever imported through
``resolve_vectorized``, which checks the optional extra first.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.iterative import (
    DEAD_POLLS,
    IterativeLayout,
    PhasedKernel,
    _ALLOC,
    _ALLOC_ROOT,
    _BEAT,
    _COUNT_LEAF,
    _COUNT_UP,
    _FINAL,
    _KICK,
    _UP,
    _UP_LEAF,
    _WAIT,
)
from repro.core.trivial import TrivialKernel, TrivialLayout
from repro.pram.vectorized import Burst, VectorProgram, VectorWindow


def _bit_length(values):
    """Vectorized ``int.bit_length()`` for positive int64 values.

    ``frexp`` is exact for anything below 2**53, far beyond any node
    index or address the layouts can produce.
    """
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


class TrivialVector(VectorProgram):
    """Vector form of the trivial assignment.

    State per lane is one column (the current element).  Because lane
    ``pid`` only ever touches elements ``pid, pid+p, pid+2p, ...``,
    every address written during a burst is distinct — across lanes
    (distinct residues mod p) and across ticks (strictly increasing) —
    so a whole burst commits as one scatter with no resolution step,
    and the exact goal tick falls out of a cumulative count of the
    zeros the scatter fills.  This closed form is the lane's headline
    speedup: the per-tick cost drops from O(P) Python dispatches to
    amortized O(1) array work.
    """

    kind = "trivial"

    def __init__(self, layout: TrivialLayout) -> None:
        n = layout.n
        p = layout.p
        x_base = layout.x_base
        super().__init__(
            layout, lambda pid: TrivialKernel(pid, n, p, x_base)
        )
        self.n = n
        self.x_base = x_base
        self.element = np.zeros(p, dtype=np.int64)
        self.live = np.zeros(p, dtype=bool)

    def pack_lane(self, pid: int) -> None:
        kernel = self.kernels[pid]
        self.element[pid] = kernel.element
        self.live[pid] = kernel.live

    def unpack_lane(self, pid: int) -> None:
        kernel = self.kernels[pid]
        kernel.element = int(self.element[pid])
        kernel.live = bool(self.live[pid])

    def run_quiet(
        self, window: VectorWindow, pids: Sequence[int], budget: int
    ) -> Burst:
        self.ensure_packed(window, pids)
        ids = np.asarray(pids, dtype=np.int64)
        n = self.n
        p = self.p
        element = self.element[ids]
        # Ticks until each lane writes its last element (>= 1: a
        # running lane's stepper is live, so element < n).
        remaining = (n - element + p - 1) // p
        ticks = min(budget, int(remaining.min()))
        # All burst addresses, one row per tick.  Total size is bounded
        # by n (each lane owns a disjoint slice of the array).
        addresses = (
            self.x_base
            + element[None, :]
            + np.arange(ticks, dtype=np.int64)[:, None] * p
        )
        old = window.cells[addresses]
        filled_per_tick = np.cumsum((old == 0).sum(axis=1))
        if window.goal is not None:
            hit = np.flatnonzero(window.goal_zeros - filled_per_tick == 0)
            if hit.size:
                ticks = int(hit[0]) + 1
                addresses = addresses[:ticks]
                filled_per_tick = filled_per_tick[:ticks]
        flat = addresses.ravel()
        window.cells[flat] = 1
        window.mark_dirty(flat)
        window.writes += int(flat.size)
        if window.goal is not None:
            window.goal_zeros -= int(filled_per_tick[ticks - 1])
        new_element = element + ticks * p
        self.element[ids] = new_element
        alive = new_element < n
        self.live[ids] = alive
        halted = [int(pid) for pid in ids[~alive]]
        return Burst(ticks=ticks, halted=halted)


class WVector(VectorProgram):
    """Vector form of algorithm W's phased kernel.

    Every ``PhasedKernel`` slot becomes a column; each tick partitions
    the running lanes by phase code and replays that phase's
    ``quiet_step`` staging and ``advance`` transition as masked array
    ops (the shared ``step``/``done`` cells are scalars, so most
    branches are uniform per group).  ``last_seen``/``target``/``leaf``
    encode ``None`` as ``-1``.
    """

    kind = "W"

    def __init__(self, layout: IterativeLayout, lam: int) -> None:
        super().__init__(layout, lambda pid: PhasedKernel(pid, layout, lam))
        p = layout.p
        self.lam = lam
        self.step_addr = layout.step_addr
        self.done_addr = layout.done_addr
        self.x_base = layout.x_base
        self.leaves = layout.leaves
        self.log_l = layout.progress_tree.height
        self.chunk = layout.chunk
        self.d1 = layout.d_base - 1
        self.c1 = layout.c_base - 1
        self.c_height = layout.counting_tree.height
        self.mult = 2 * layout.p_leaves + 1
        counting = layout.counting_tree
        self.own_leaf = np.asarray(
            [counting.leaf_node(pid) for pid in range(p)], dtype=np.int64
        )
        zeros = lambda: np.zeros(p, dtype=np.int64)
        self.phase = zeros()
        self.st = zeros()
        self.last_seen = zeros()  # -1 == None
        self.same_polls = zeros()
        self.kick = zeros()
        self.iteration_number = zeros()
        self.rank = zeros()
        self.total = zeros()
        self.node = zeros()
        self.count_below = zeros()
        self.level = zeros()
        self.target = zeros()  # -1 == None
        self.leaf = zeros()  # -1 == None
        self.offset = zeros()
        self.joining = np.zeros(p, dtype=bool)
        self.live = np.zeros(p, dtype=bool)

    def pack_lane(self, pid: int) -> None:
        kernel = self.kernels[pid]
        self.phase[pid] = kernel.phase
        self.st[pid] = kernel.st
        self.last_seen[pid] = (
            -1 if kernel.last_seen is None else kernel.last_seen
        )
        self.same_polls[pid] = kernel.same_polls
        self.kick[pid] = kernel.kick
        self.iteration_number[pid] = kernel.iteration_number
        self.rank[pid] = kernel.rank
        self.total[pid] = kernel.total
        self.node[pid] = kernel.node
        self.count_below[pid] = kernel.count_below
        self.level[pid] = kernel.level
        self.target[pid] = -1 if kernel.target is None else kernel.target
        self.leaf[pid] = -1 if kernel.leaf is None else kernel.leaf
        self.offset[pid] = kernel.offset
        self.joining[pid] = kernel.joining
        self.live[pid] = kernel.live

    def unpack_lane(self, pid: int) -> None:
        kernel = self.kernels[pid]
        kernel.phase = int(self.phase[pid])
        last_seen = int(self.last_seen[pid])
        kernel.last_seen = None if last_seen < 0 else last_seen
        kernel.st = int(self.st[pid])
        kernel.same_polls = int(self.same_polls[pid])
        kernel.kick = int(self.kick[pid])
        kernel.iteration_number = int(self.iteration_number[pid])
        kernel.rank = int(self.rank[pid])
        kernel.total = int(self.total[pid])
        kernel.node = int(self.node[pid])
        kernel.count_below = int(self.count_below[pid])
        kernel.level = int(self.level[pid])
        target = int(self.target[pid])
        kernel.target = None if target < 0 else target
        leaf = int(self.leaf[pid])
        kernel.leaf = None if leaf < 0 else leaf
        kernel.offset = int(self.offset[pid])
        kernel.joining = bool(self.joining[pid])
        kernel.live = bool(self.live[pid])

    def run_quiet(
        self, window: VectorWindow, pids: Sequence[int], budget: int
    ) -> Burst:
        self.ensure_packed(window, pids)
        ids = np.asarray(pids, dtype=np.int64)
        ticks = 0
        halted: List[int] = []
        while ticks < budget:
            ticks += 1
            self._tick(window, ids)
            alive = self.live[ids]
            if not bool(alive.all()):
                halted = [int(pid) for pid in ids[~alive]]
                break
            if window.goal is not None and window.goal_zeros == 0:
                break
        return Burst(ticks=ticks, halted=halted)

    def _finish_alloc(self, lanes) -> None:
        self.leaf[lanes] = np.where(
            self.target[lanes] >= 0, self.node[lanes], -1
        )
        self.offset[lanes] = 0
        self.phase[lanes] = _BEAT

    def _tick(self, window: VectorWindow, ids) -> None:
        cells = window.cells
        done = int(cells[self.done_addr])
        step_val = int(cells[self.step_addr])
        lam = self.lam
        phase = self.phase[ids]
        reads = 0
        addr_parts: List[object] = []
        val_parts: List[object] = []
        pid_parts: List[object] = []

        def stage(addresses, values, lanes) -> None:
            addr_parts.append(np.broadcast_to(addresses, lanes.shape))
            val_parts.append(np.broadcast_to(values, lanes.shape))
            pid_parts.append(lanes)

        sub = ids[phase == _BEAT]
        if sub.size:
            reads += int(sub.size)
            st = self.st[sub]
            leaf = self.leaf[sub]
            has_leaf = leaf >= 0
            if bool(has_leaf.any()):
                lanes = sub[has_leaf]
                element = (leaf[has_leaf] - self.leaves) * self.chunk
                stage(
                    self.x_base + element + self.offset[lanes],
                    np.int64(1),
                    lanes,
                )
            stage(np.int64(self.step_addr), st, sub)
            if done != 0:
                self.live[sub] = False
            else:
                self.st[sub] = st + 1
                offset = self.offset[sub] + 1
                self.offset[sub] = offset
                finished = offset >= self.chunk
                if bool(finished.any()):
                    self.phase[sub[finished]] = _UP_LEAF

        sub = ids[phase == _ALLOC]
        if sub.size:
            idle = self.target[sub] < 0
            descending = sub[~idle]
            reads += int(sub.size) + 2 * int(descending.size)
            stage(np.int64(self.step_addr), self.st[sub], sub)
            if done != 0:
                self.live[sub] = False
            else:
                self.st[sub] += 1
                if descending.size:
                    node = self.node[descending]
                    left = 2 * node
                    v0 = cells[self.d1 + left]
                    v1 = cells[self.d1 + left + 1]
                    under = self.leaves >> (_bit_length(left) - 1)
                    left_unvisited = under - v0
                    remaining = left_unvisited + (under - v1)
                    stale = remaining <= 0
                    slot = np.minimum(self.target[descending], remaining - 1)
                    go_left = slot < left_unvisited
                    new_node = np.where(go_left, left, left + 1)
                    new_target = np.where(go_left, slot, slot - left_unvisited)
                    self.node[descending] = np.where(stale, left, new_node)
                    self.target[descending] = np.where(stale, 0, new_target)
                level = self.level[sub] + 1
                self.level[sub] = level
                finished = level >= self.log_l
                if bool(finished.any()):
                    self._finish_alloc(sub[finished])

        sub = ids[phase == _UP]
        if sub.size:
            leaf = self.leaf[sub]
            climbing = sub[leaf >= 0]
            reads += int(sub.size) + 2 * int(climbing.size)
            if climbing.size:
                parent = self.node[climbing] // 2
                v0 = cells[self.d1 + 2 * parent]
                v1 = cells[self.d1 + 2 * parent + 1]
                stage(self.d1 + parent, v0 + v1, climbing)
            stage(np.int64(self.step_addr), self.st[sub], sub)
            if done != 0:
                self.live[sub] = False
            else:
                if climbing.size:
                    self.node[climbing] //= 2
                self.st[sub] += 1
                level = self.level[sub] + 1
                self.level[sub] = level
                finished = level >= self.log_l
                if bool(finished.any()):
                    self.phase[sub[finished]] = _FINAL

        sub = ids[phase == _COUNT_UP]
        if sub.size:
            reads += 3 * int(sub.size)
            mult = self.mult
            parent = self.node[sub] // 2
            v0 = cells[self.c1 + 2 * parent]
            v1 = cells[self.c1 + 2 * parent + 1]
            iteration = self.iteration_number[sub]
            left = np.where(v0 // mult == iteration, v0 % mult, 0)
            right = np.where(v1 // mult == iteration, v1 % mult, 0)
            stage(self.c1 + parent, iteration * mult + left + right, sub)
            stage(np.int64(self.step_addr), self.st[sub], sub)
            if done != 0:
                self.live[sub] = False
            else:
                node = self.node[sub]
                self.rank[sub] += np.where((node & 1) == 1, left, 0)
                count_below = left + right
                self.count_below[sub] = count_below
                self.node[sub] = node // 2
                self.st[sub] += 1
                level = self.level[sub] + 1
                self.level[sub] = level
                finished = level >= self.c_height
                if bool(finished.any()):
                    lanes = sub[finished]
                    total = np.maximum(count_below[finished], 1)
                    self.total[lanes] = total
                    self.rank[lanes] = np.minimum(self.rank[lanes], total - 1)
                    self.phase[lanes] = _ALLOC_ROOT

        sub = ids[phase == _WAIT]
        if sub.size:
            reads += 2 * int(sub.size)
            if done != 0:
                self.live[sub] = False
            elif step_val % lam == lam - 2:
                st = step_val + 2
                self.st[sub] = st
                self.joining[sub] = True
                self.iteration_number[sub] = st // lam
                self.phase[sub] = _COUNT_LEAF
            else:
                same = self.last_seen[sub] == step_val
                polls = np.where(same, self.same_polls[sub] + 1, 1)
                self.same_polls[sub] = polls
                self.last_seen[sub] = step_val
                dead = polls >= DEAD_POLLS
                if bool(dead.any()):
                    kick = (step_val // lam) * lam + (lam - 2)
                    if kick <= step_val:
                        kick += lam
                    lanes = sub[dead]
                    self.kick[lanes] = kick
                    self.phase[lanes] = _KICK

        sub = ids[phase == _COUNT_LEAF]
        if sub.size:
            joining = self.joining[sub]
            sub_join = sub[joining]
            sub_direct = sub[~joining]
            reads += 2 * int(sub_join.size) + int(sub_direct.size)
            st_join = self.st[sub_join]
            guard_ok = (step_val == st_join - 1) | (step_val == st_join - 2)
            writers = np.concatenate((sub_join[guard_ok], sub_direct))
            if writers.size:
                stage(
                    self.c1 + self.own_leaf[writers],
                    self.iteration_number[writers] * self.mult + 1,
                    writers,
                )
                stage(np.int64(self.step_addr), self.st[writers], writers)
            resync = sub_join[~guard_ok]
            if resync.size:
                self.phase[resync] = _WAIT
                self.last_seen[resync] = -1
                self.same_polls[resync] = 0
                self.joining[resync] = False
            if writers.size:
                self.joining[writers] = False
                if done != 0:
                    self.live[writers] = False
                else:
                    self.st[writers] += 1
                    self.rank[writers] = 0
                    self.node[writers] = self.own_leaf[writers]
                    self.count_below[writers] = 1
                    self.level[writers] = 0
                    if self.c_height == 0:
                        self.total[writers] = 1
                        self.phase[writers] = _ALLOC_ROOT
                    else:
                        self.phase[writers] = _COUNT_UP

        sub = ids[phase == _UP_LEAF]
        if sub.size:
            reads += int(sub.size)
            leaf = self.leaf[sub]
            has_leaf = leaf >= 0
            if bool(has_leaf.any()):
                stage(self.d1 + leaf[has_leaf], np.int64(1), sub[has_leaf])
            stage(np.int64(self.step_addr), self.st[sub], sub)
            if done != 0:
                self.live[sub] = False
            else:
                self.st[sub] += 1
                self.node[sub] = np.where(leaf >= 0, leaf, 0)
                self.level[sub] = 0
                self.phase[sub] = _UP if self.log_l > 0 else _FINAL

        root_count = int(cells[self.d1 + 1])

        sub = ids[phase == _ALLOC_ROOT]
        if sub.size:
            reads += 2 * int(sub.size)
            stage(np.int64(self.step_addr), self.st[sub], sub)
            if done != 0:
                self.live[sub] = False
            else:
                self.st[sub] += 1
                unvisited = self.leaves - root_count
                if unvisited > 0:
                    target = (self.rank[sub] * unvisited) // self.total[sub]
                    self.target[sub] = np.where(
                        target >= unvisited, target % unvisited, target
                    )
                else:
                    self.target[sub] = -1
                self.node[sub] = 1
                self.level[sub] = 0
                if self.log_l == 0:
                    self._finish_alloc(sub)
                else:
                    self.phase[sub] = _ALLOC

        sub = ids[phase == _FINAL]
        if sub.size:
            reads += 2 * int(sub.size)
            if root_count >= self.leaves:
                stage(np.int64(self.done_addr), np.int64(1), sub)
            stage(np.int64(self.step_addr), self.st[sub], sub)
            if done != 0 or root_count >= self.leaves:
                self.live[sub] = False
            else:
                st = self.st[sub] + 1
                self.st[sub] = st
                self.iteration_number[sub] = st // lam
                self.phase[sub] = _COUNT_LEAF

        sub = ids[phase == _KICK]
        if sub.size:
            stage(np.int64(self.step_addr), self.kick[sub], sub)
            self.last_seen[sub] = -1
            self.same_polls[sub] = 0
            self.phase[sub] = _WAIT

        window.reads += reads
        if addr_parts:
            window.commit(
                np.concatenate(addr_parts),
                np.concatenate(pid_parts),
                np.concatenate(val_parts),
            )
