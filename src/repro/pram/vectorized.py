"""Vectorized batch-processor lane: all P processors advance as array ops.

The perf lineage so far removed per-tick *allocation* (the fast path),
per-tick *adversary dispatch* (event-horizon windows) and per-tick
*generator dispatch* (compiled kernels) — but even the compiled quiet
loop still steps processors one at a time in pure Python, so a quiet
tick costs ``O(P)`` interpreter dispatches.  This module adds the fifth
lane: inside a fused quiet window the per-processor program state lives
as a struct-of-arrays (one int64/bool column per kernel field), shared
memory is mirrored into an int64 ndarray, and each tick executes as
masked array operations — gather for reads, per-phase compute kernels,
CRCW resolution via ``np.lexsort`` + ``np.minimum.reduceat``, scatter
for commits.  That is exactly how the paper's Write-All algorithms are
specified: synchronous lockstep phases over shared memory.

The lane is **opt-in** (``--lane vec``) and **windows-only**:

* outside quiet windows — adversary-visible ticks, traces, the
  reference core — every processor is driven through the same scalar
  :class:`~repro.pram.compiled.CompiledProgram` kernels as the compiled
  lane (``materialize_pending()`` works unchanged), so failure
  patterns, pending views, and traces are identical by construction;
* at window entry the touched lanes' scalar state is *packed* into the
  column arrays, and at window exit (or on any error) it is *unpacked*
  back, so the two representations are never live at once.

**Soundness contract for vector-program authors** (extends the kernel
contract in :mod:`repro.pram.compiled`):

* a window tick must charge exactly the reads the scalar kernel's
  ``quiet_step`` would charge, stage the same ``(address, value)``
  writes, and advance each lane's state exactly as ``advance()`` would;
* write resolution must match the object lane value-for-value: one
  write charged per *distinct* address per tick, singleton writers
  commit as-is (the policies here guarantee identity), and collision
  groups resolve through the same :class:`~repro.pram.policies`
  semantics — including raising the same errors, applied in ascending
  address order so partial state on error is identical;
* ``pack_lane``/``unpack_lane`` must round-trip the scalar kernel state
  exactly (a lane untouched by any burst is never written back at all).

The 5-mode differential suite (``tests/pram/``) and the CRCW property
tests enforce the contract; numpy is an optional extra
(``pip install .[numpy]``) and everything here degrades with a clear
error — never a crash at import time — when it is absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.pram.errors import MemoryError_
from repro.pram.policies import (
    ArbitraryCrcw,
    CollisionCrcw,
    CommonCrcw,
    PriorityCrcw,
    StrongCrcw,
    WritePolicy,
)

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: Whether the optional numpy extra is importable in this environment.
HAVE_NUMPY = _np is not None


class VectorizedUnavailable(RuntimeError):
    """The vectorized lane was requested but numpy is not installed."""


def require_numpy() -> None:
    """Raise a clear error when the optional numpy extra is missing."""
    if _np is None:
        raise VectorizedUnavailable(
            "the vectorized lane needs numpy, which is an optional "
            "dependency — install it with `pip install .[numpy]` (or "
            "`pip install numpy`), or drop --lane vec"
        )


def numpy_module():
    """The numpy module, raising :class:`VectorizedUnavailable` if absent."""
    require_numpy()
    return _np


def trusted_vectorized_program(algorithm: object):
    """The algorithm's ``vectorized_program`` hook, or None if untrusted.

    Same MRO trust guard as
    :func:`repro.pram.compiled.trusted_compiled_program`: a vector
    program is a promise about what ``program()`` does, so it is only
    honored when declared by the class that defines the instance's
    effective ``program()`` (or a subclass of it).
    """
    hook = getattr(algorithm, "vectorized_program", None)
    if hook is None:
        return None
    instance_vars = getattr(algorithm, "__dict__", {})
    if "vectorized_program" in instance_vars:
        return hook
    if "program" in instance_vars:
        return None
    for klass in type(algorithm).__mro__:
        if "vectorized_program" in vars(klass):
            return hook
        if "program" in vars(klass):
            return None
    return None


def resolve_vectorized(
    algorithm: object,
    layout: object,
    tasks: object,
    vectorized: Union[bool, str] = False,
) -> Optional["VectorProgram"]:
    """The vector program to install for a run, or None for scalar lanes.

    Combines the opt-in switch (``vectorized=True`` is
    ``--lane vec``; the default stays on the scalar lanes; the
    string ``"auto"`` is the ``--lane auto`` adaptive mode), the numpy
    availability check (an explicit ``True`` without numpy is a loud
    :class:`VectorizedUnavailable`, not a silent downgrade — but
    ``"auto"`` *does* degrade silently to the scalar compiled lane,
    that being the whole point of an adaptive default), the MRO trust
    guard, and the algorithm's own gating (``vectorized_program``
    returns None for configurations it cannot vectorize, e.g.
    non-trivial task sets or PID-hashed routing).
    """
    if not vectorized:
        return None
    if vectorized == "auto":
        if not HAVE_NUMPY:
            return None
    else:
        require_numpy()
    hook = trusted_vectorized_program(algorithm)
    if hook is None:
        return None
    return hook(layout, tasks)


# ---------------------------------------------------------------------- #
# CRCW write resolution
# ---------------------------------------------------------------------- #


def _sorted_groups(addresses, pids, values):
    """Lexsort staged writes by (address, pid); return group starts.

    The object lane groups concurrent writers per address with PIDs
    ascending (processors are iterated in PID order); sorting by
    address with PID as the tie-break reproduces exactly that grouping
    in flat-array form.
    """
    np = _np
    addrs = np.asarray(addresses, dtype=np.int64).ravel()
    pid_arr = np.asarray(pids, dtype=np.int64).ravel()
    vals = np.asarray(values, dtype=np.int64).ravel()
    if addrs.size == 0:
        starts = np.zeros(0, dtype=np.int64)
        return addrs, pid_arr, vals, starts
    order = np.lexsort((pid_arr, addrs))
    a = addrs[order]
    w = pid_arr[order]
    v = vals[order]
    boundary = np.empty(a.size, dtype=bool)
    boundary[0] = True
    np.not_equal(a[1:], a[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return a, w, v, starts


def _vector_resolve(a, w, v, starts, policy: WritePolicy):
    """Resolve sorted write groups fully vectorized, or None for fallback.

    Handles the stock identity-singleton policies; anything it cannot
    prove conflict-free (a COMMON disagreement, an unknown policy
    subclass) returns None so the caller can fall back to the ordered
    per-group reference path with its exact error semantics.
    """
    np = _np
    first = v[starts]
    # counts > 1 anywhere?  starts[i+1] - starts[i] == 1 for singletons.
    if starts.size == a.size and policy.singleton_resolve_is_identity:
        # every group is a singleton and the policy lets single-writer
        # commits skip resolve (the grouped commit's fast case) — a
        # stateful policy must instead fall through so its resolve
        # call count matches the object lane exactly.
        return first
    kind = type(policy)
    if kind is ArbitraryCrcw or kind is PriorityCrcw:
        # both commit to the lowest PID, which is first-in-group here.
        return first
    if kind is StrongCrcw:
        return np.maximum.reduceat(v, starts)
    if kind is CommonCrcw:
        lo = np.minimum.reduceat(v, starts)
        hi = np.maximum.reduceat(v, starts)
        if bool((lo == hi).all()):
            return first
        return None  # a genuine COMMON violation: raise via the slow path
    if kind is CollisionCrcw:
        lo = np.minimum.reduceat(v, starts)
        hi = np.maximum.reduceat(v, starts)
        return np.where(lo == hi, first, np.int64(policy.collision_value))
    return None


def resolve_writes(addresses, pids, values, policy: WritePolicy):
    """Resolve one tick's staged writes; the property-test entry point.

    Returns ``(unique_addresses, resolved_values)`` as int64 arrays with
    addresses strictly ascending — value-for-value what the object
    lane's grouped commit (`Machine._commit_grouped`) would store, for
    any collision pattern.  Policies (or collision patterns) the vector
    path cannot express are resolved through ``policy.resolve`` per
    group in ascending address order, raising the reference errors.
    """
    require_numpy()
    np = _np
    a, w, v, starts = _sorted_groups(addresses, pids, values)
    if a.size == 0:
        return a, v
    uaddrs = a[starts]
    resolved = _vector_resolve(a, w, v, starts, policy)
    if resolved is not None:
        return uaddrs, resolved
    ends = np.append(starts[1:], a.size)
    out = np.empty(starts.size, dtype=np.int64)
    for index in range(starts.size):
        lo = int(starts[index])
        hi = int(ends[index])
        writers = [(int(w[j]), int(v[j])) for j in range(lo, hi)]
        out[index] = policy.resolve(int(uaddrs[index]), writers)
    return uaddrs, out


# ---------------------------------------------------------------------- #
# window machinery
# ---------------------------------------------------------------------- #


@dataclass
class Burst:
    """One batched stretch of quiet ticks executed inside a window.

    ``ticks`` is at least 1; ``halted`` lists the PIDs whose programs
    halted voluntarily on the burst's final tick (the machine flips
    their processor status, exactly as the scalar quiet loop would).
    """

    ticks: int
    halted: List[int] = field(default_factory=list)


#: Dirty fraction above which flushing falls back to a full
#: ``replace_cells`` (one C-speed bulk copy + vectorized recount) instead
#: of the per-cell tracker-exact sync loop.
_FULL_SYNC_FRACTION = 3


class VectorWindow:
    """Resident state for fused quiet windows run on the vector lane.

    Mirrors shared memory into an int64 ndarray and accumulates
    read/write charges plus the goal region's remaining-zero count.
    Since PR 8 the window is *persistent*: consecutive quiet windows
    reuse the mirror and the packed SoA columns with zero boundary cost,
    and only :meth:`flush` — called by the machine the moment anything
    outside the vector lane could observe memory or kernel state —
    unpacks the touched lanes and writes back the **dirty cells only**
    (tracked in a bitmap by :meth:`mark_dirty`), turning the old
    per-window ``O(P + M)`` pack/mirror/writeback cost into
    ``O(touched)``.  While suspended, a
    :class:`~repro.pram.memory.WriteWatcher` journals every external
    write so :meth:`resume` refreshes exactly those mirror cells.
    """

    def __init__(
        self,
        program: "VectorProgram",
        memory,
        policy: WritePolicy,
        goal: Optional[Tuple[int, int]],
    ) -> None:
        self.program = program
        self.memory = memory
        self.policy = policy
        self.cells = _np.array(memory.raw_cells(), dtype=_np.int64)
        self.dirty = _np.zeros(self.cells.size, dtype=bool)
        self.reads = 0
        self.writes = 0
        self.touched: Set[int] = set()
        self.goal = goal
        if goal is not None:
            tracker = memory.track_zeros(goal[0], goal[1])
            self.goal_zeros = tracker.zeros
        else:
            self.goal_zeros = -1
        self._watcher = memory.attach_watcher()
        self._suspended = False

    @property
    def goal_reached(self) -> bool:
        return self.goal is not None and self.goal_zeros == 0

    @property
    def suspended(self) -> bool:
        """Whether the window is flushed (memory authoritative, lanes cold)."""
        return self._suspended

    def resume(self, goal: Optional[Tuple[int, int]]) -> None:
        """Make the mirror current again after a :meth:`flush`.

        Between back-to-back quiet windows (nothing intervened) this is
        a no-op; after observable/adversary ticks it refreshes exactly
        the journaled cells — a bulk rewrite (``replace_cells``) sets
        the journal's overflow flag and forces a full refresh — and
        re-reads the goal tracker, which stayed exact while the scalar
        paths wrote through :class:`~repro.pram.memory.SharedMemory`.
        Packed lanes are *not* revived: flush invalidated them (their
        scalar kernels advanced in the meantime), so the next burst's
        ``ensure_packed`` re-packs the running set.
        """
        if self._suspended:
            watcher = self._watcher
            if watcher.overflow:
                self.cells[:] = self.memory.raw_cells()
            elif watcher.addresses:
                raw = self.memory.raw_cells()
                addrs = list(watcher.addresses)
                self.cells[addrs] = [raw[address] for address in addrs]
            watcher.clear()
            if self.goal is not None:
                tracker = self.memory.track_zeros(self.goal[0], self.goal[1])
                self.goal_zeros = tracker.zeros
            self._suspended = False
        if goal != self.goal:
            # A different ``until`` predicate than the one the window
            # was built for (a later run() on the same machine): count
            # the new region from the mirror, which is authoritative
            # for any cell the resident window has dirtied.
            self.goal = goal
            if goal is None:
                self.goal_zeros = -1
            else:
                self.memory.track_zeros(goal[0], goal[1])
                start, length = goal
                self.goal_zeros = int(_np.count_nonzero(
                    self.cells[start : start + length] == 0
                ))

    def flush(self) -> None:
        """Unpack touched lanes and write back dirty cells (idempotent).

        Called by the machine before anything outside the vector lane
        observes memory or per-PID kernel state: adversary-visible
        ticks, scalar quiet windows, ``until`` predicates outside the
        window, and run exits.  Afterwards memory and mirror agree, so
        the external-write journal restarts empty.
        """
        if self._suspended:
            return
        self._suspended = True
        for pid in sorted(self.touched):
            self.program.unpack_lane(pid)
        self.touched.clear()
        dirty = self.dirty
        indexes = _np.flatnonzero(dirty)
        if indexes.size:
            cells = self.cells
            memory = self.memory
            if indexes.size * _FULL_SYNC_FRACTION >= cells.size:
                memory.replace_cells(
                    cells.tolist(),
                    count_zeros=lambda start, stop: _np.count_nonzero(
                        cells[start:stop] == 0
                    ),
                )
            else:
                memory.sync_cells(zip(
                    indexes.tolist(), cells[indexes].tolist()
                ))
            dirty[indexes] = False
        self._watcher.clear()

    def charge_traffic(self) -> None:
        """Charge the accumulated read/write counts into the memory.

        Called at every window boundary (not only at flush) so the
        ledger's traffic totals at any observable point are identical
        to the scalar quiet loop's.
        """
        memory = self.memory
        if self.reads:
            memory.charge_reads(self.reads)
            self.reads = 0
        if self.writes:
            memory.charge_writes(self.writes)
            self.writes = 0

    def mark_dirty(self, addresses) -> None:
        """Record mirror cells written outside :meth:`commit`.

        Vector programs with closed-form bursts (TrivialVector) scatter
        into ``window.cells`` directly; they must mark what they wrote
        so the dirty-cell writeback stays exact.
        """
        self.dirty[addresses] = True

    def commit(self, addresses, pids, values) -> None:
        """Resolve and apply one tick's staged writes.

        Charges one write per distinct address (matching both the
        clean ``commit_resolved`` path and the grouped general path of
        the object lane).  Irregular groups fall back to ordered
        per-address ``policy.resolve`` application, so a policy error
        leaves the same partially-applied state as the reference.
        """
        np = _np
        a, w, v, starts = _sorted_groups(addresses, pids, values)
        if a.size == 0:
            return
        cells = self.cells
        if int(a[0]) < 0 or int(a[-1]) >= cells.size:
            bad = int(a[0]) if int(a[0]) < 0 else int(a[-1])
            raise MemoryError_(
                f"address {bad} out of range [0, {cells.size})"
            )
        uaddrs = a[starts]
        resolved = _vector_resolve(a, w, v, starts, self.policy)
        if resolved is not None:
            self._scatter(uaddrs, resolved)
            return
        ends = np.append(starts[1:], a.size)
        for index in range(starts.size):
            lo = int(starts[index])
            hi = int(ends[index])
            address = int(uaddrs[index])
            writers = [(int(w[j]), int(v[j])) for j in range(lo, hi)]
            value = int(self.policy.resolve(address, writers))
            self._scatter(
                uaddrs[index : index + 1],
                np.asarray([value], dtype=np.int64),
            )

    def _scatter(self, uaddrs, uvals) -> None:
        """Apply resolved (address, value) pairs; maintain the goal count."""
        cells = self.cells
        self.writes += int(uaddrs.size)
        if self.goal is not None:
            start, length = self.goal
            in_region = (uaddrs >= start) & (uaddrs < start + length)
            if bool(in_region.any()):
                old = cells[uaddrs[in_region]]
                new = uvals[in_region]
                filled = int(((old == 0) & (new != 0)).sum())
                emptied = int(((old != 0) & (new == 0)).sum())
                self.goal_zeros += emptied - filled
        cells[uaddrs] = uvals
        self.dirty[uaddrs] = True

    def finish(self) -> None:
        """Charge traffic and flush: the one-shot (non-resident) exit."""
        self.charge_traffic()
        self.flush()

    def close(self) -> None:
        """Flush and detach the external-write journal (end of residency).

        Called when the machine retires the window for good — a new
        program is loaded — so the journal stops charging every scalar
        write with a set insert.
        """
        self.flush()
        self.memory.detach_watcher(self._watcher)


class VectorProgram:
    """Base class for whole-machine vectorized programs.

    One instance covers all P lanes of a run.  Its :meth:`pid_stepper`
    doubles as the machine's compiled-kernel factory, handing out the
    *scalar* kernels that drive observable ticks; the column arrays a
    subclass allocates hold the same state in struct-of-arrays form
    while a window is live, with :meth:`pack_lane` /
    :meth:`unpack_lane` converting at the boundary.
    """

    #: Program-kind tag consumed by the adaptive dispatch cost model
    #: (:mod:`repro.pram.dispatch`); subclasses override with their
    #: algorithm name so per-kind calibrated coefficients apply.
    kind = "generic"

    def __init__(self, layout, scalar_factory: Callable[[int], object]) -> None:
        require_numpy()
        self.layout = layout
        self.p = layout.p
        self.kernels: Dict[int, object] = {}
        self._scalar_factory = scalar_factory

    # -- object-lane adapter ------------------------------------------- #

    def pid_stepper(self, pid: int):
        """CompiledFactory adapter: one shared scalar kernel per PID."""
        kernel = self.kernels.get(pid)
        if kernel is None:
            kernel = self._scalar_factory(pid)
            self.kernels[pid] = kernel
        return kernel

    # -- window lifecycle ---------------------------------------------- #

    def begin_window(
        self, memory, policy: WritePolicy, goal: Optional[Tuple[int, int]]
    ) -> VectorWindow:
        return VectorWindow(self, memory, policy, goal)

    def ensure_packed(self, window: VectorWindow, pids: Sequence[int]) -> None:
        """Pack any lane not yet materialized into the column arrays."""
        touched = window.touched
        for pid in pids:
            if pid not in touched:
                self.pack_lane(pid)
                touched.add(pid)

    # -- subclass responsibilities ------------------------------------- #

    def pack_lane(self, pid: int) -> None:
        """Copy lane ``pid``'s scalar-kernel state into the columns."""
        raise NotImplementedError

    def unpack_lane(self, pid: int) -> None:
        """Copy lane ``pid``'s column state back into its scalar kernel."""
        raise NotImplementedError

    def run_quiet(
        self, window: VectorWindow, pids: Sequence[int], budget: int
    ) -> Burst:
        """Advance lanes ``pids`` by up to ``budget`` quiet ticks.

        Must execute at least one tick, stop *on* (including) the first
        tick where any lane halts or the goal region empties, charge
        reads into ``window.reads``, and stage every tick's writes
        through ``window.commit``.
        """
        raise NotImplementedError
