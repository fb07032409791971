"""Reliable shared memory with atomic word writes.

Model assumptions from Section 2.1/2.3 of the paper:

* shared memory is reliable — failures never corrupt it;
* cells store ``O(log max(N, P))``-bit words and word writes are atomic
  (failures land between writes, never inside one).  Cells here hold
  Python integers and no word width is checked (``docs/MODEL.md``
  lists this among what the simulator does not model);
* the input occupies the first cells and the rest is cleared (zeroes).

The class also keeps running read/write counters; they feed the ledger's
traffic statistics (useful for sanity-checking the ≤4-read / ≤2-write
update-cycle discipline at the aggregate level).

Two facilities exist purely for the simulator's hot path:

* :class:`ZeroRegionTracker` — a remaining-zeros counter over a cell
  region, maintained incrementally by every write so termination
  predicates (e.g. Write-All's "all of x is non-zero") are O(1) per tick
  instead of an O(N) rescan;
* :meth:`SharedMemory.raw_cells` / :meth:`SharedMemory.commit_resolved` /
  :meth:`SharedMemory.charge_reads` — raw access for the machine's
  validated fast path, which keeps the traffic counters and trackers
  coherent itself.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.pram.errors import MemoryError_

#: Value returned by reads of a faulty cell (the CGP static-memory-fault
#: model: dead cells never store, and reads yield garbage — we make the
#: garbage a recognizable sentinel so simulations stay deterministic).
#: Deliberately nonzero: a dead Write-All cell must never look "written",
#: and zero-region trackers count it as non-zero, so termination
#: predicates that scan for zeros are not fooled either way — fault-aware
#: algorithms must certify completion through their own live structures.
POISON = -(1 << 61)


class ZeroRegionTracker:
    """Incrementally maintained count of zero-valued cells in a region.

    Registered via :meth:`SharedMemory.track_zeros`; every write path of
    the memory (and the machine's raw fast path) keeps ``zeros`` exact,
    so ``tracker.zeros == 0`` is an O(1) "every cell in the region is
    non-zero" test.
    """

    __slots__ = ("start", "stop", "zeros")

    def __init__(self, start: int, stop: int, zeros: int) -> None:
        self.start = start
        self.stop = stop
        self.zeros = zeros

    @property
    def all_nonzero(self) -> bool:
        return self.zeros == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ZeroRegionTracker([{self.start}, {self.stop}), "
            f"zeros={self.zeros})"
        )


class WriteWatcher:
    """A journal of addresses written since it was last cleared.

    Attached via :meth:`SharedMemory.attach_watcher` by a resident
    vector window (see :mod:`repro.pram.vectorized`): while the window
    is suspended, every write path records the touched address here, so
    resuming the window refreshes only those mirror cells instead of
    rebuilding the whole ndarray.  ``overflow`` is set by bulk rewrites
    (:meth:`SharedMemory.replace_cells`) whose touched set is "all of
    memory" — the watcher's owner must then do a full refresh.
    """

    __slots__ = ("addresses", "overflow")

    def __init__(self) -> None:
        self.addresses: set = set()
        self.overflow = False

    def clear(self) -> None:
        self.addresses.clear()
        self.overflow = False


class SharedMemory:
    """A flat array of integer word cells."""

    def __init__(
        self,
        size: int,
        initial: Optional[Sequence[int]] = None,
    ) -> None:
        if size <= 0:
            raise MemoryError_(f"shared memory size must be positive, got {size}")
        self._cells: List[int] = [0] * size
        self._trackers: List[ZeroRegionTracker] = []
        self._watchers: List[WriteWatcher] = []
        self._faulty: frozenset = frozenset()
        self.reads_served = 0
        self.writes_applied = 0
        if initial is not None:
            if len(initial) > size:
                raise MemoryError_(
                    f"initial contents ({len(initial)} cells) exceed memory size {size}"
                )
            for address, value in enumerate(initial):
                self._validate_value(address, value)
                self._cells[address] = value

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def size(self) -> int:
        return len(self._cells)

    def _validate_address(self, address: int) -> None:
        if not isinstance(address, int) or isinstance(address, bool):
            raise MemoryError_(f"address must be an integer, got {address!r}")
        if not 0 <= address < len(self._cells):
            raise MemoryError_(
                f"address {address} out of range [0, {len(self._cells)})"
            )

    def _validate_value(self, address: int, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise MemoryError_(
                f"cell {address}: values must be integers, got {value!r}"
            )

    # ------------------------------------------------------------------ #
    # cell access
    # ------------------------------------------------------------------ #

    def read(self, address: int) -> int:
        """Read one cell (counted toward the traffic statistics)."""
        self._validate_address(address)
        self.reads_served += 1
        return self._cells[address]

    def peek(self, address: int) -> int:
        """Read one cell without charging traffic (for harness/adversary use)."""
        self._validate_address(address)
        return self._cells[address]

    def _set_cell(self, address: int, value: int) -> None:
        """Store a validated value, keeping zero-region trackers exact."""
        if address in self._faulty:
            return  # writes to dead cells vanish (static memory faults)
        cells = self._cells
        old = cells[address]
        cells[address] = value
        if self._trackers and (old == 0) != (value == 0):
            delta = 1 if value == 0 else -1
            for tracker in self._trackers:
                if tracker.start <= address < tracker.stop:
                    tracker.zeros += delta
        if self._watchers:
            for watcher in self._watchers:
                watcher.addresses.add(address)

    def write(self, address: int, value: int) -> None:
        """Atomically write one word (counted toward traffic statistics)."""
        self._validate_address(address)
        self._validate_value(address, value)
        self.writes_applied += 1
        self._set_cell(address, value)

    def poke(self, address: int, value: int) -> None:
        """Write without charging traffic (for harness initialization)."""
        self._validate_address(address)
        self._validate_value(address, value)
        self._set_cell(address, value)

    def snapshot(self) -> List[int]:
        """A copy of the entire contents (harness/adversary use; uncharged)."""
        return list(self._cells)

    def load(self, values: Iterable[int], offset: int = 0) -> None:
        """Bulk-load ``values`` starting at ``offset`` (uncharged)."""
        for delta, value in enumerate(values):
            self.poke(offset + delta, value)

    def region(self, start: int, length: int) -> List[int]:
        """A copy of ``length`` cells starting at ``start`` (uncharged).

        An empty region is legal anywhere in ``[0, size]`` — including
        ``start == size``, the one-past-the-end position a zero-length
        slice at the end of memory naturally has.
        """
        if length < 0:
            raise MemoryError_(f"region length must be non-negative, got {length}")
        if length == 0:
            if (
                isinstance(start, int)
                and not isinstance(start, bool)
                and 0 <= start <= len(self._cells)
            ):
                return []
            self._validate_address(start)  # raises the standard error
        self._validate_address(start)
        if start + length > len(self._cells):
            raise MemoryError_(
                f"region [{start}, {start + length}) exceeds memory size "
                f"{len(self._cells)}"
            )
        return self._cells[start : start + length]

    # ------------------------------------------------------------------ #
    # fast-path hooks (simulator internals)
    # ------------------------------------------------------------------ #

    def raw_cells(self) -> List[int]:
        """The underlying cell list, for the machine's validated fast path.

        Callers reading from it must charge traffic via
        :meth:`charge_reads`; callers writing through it must instead go
        through :meth:`commit_resolved` so counters and zero-region
        trackers stay exact.
        """
        return self._cells

    def charge_reads(self, count: int) -> None:
        """Charge ``count`` reads performed through :meth:`raw_cells`."""
        self.reads_served += count

    def charge_writes(self, count: int) -> None:
        """Charge ``count`` writes applied outside :meth:`write`.

        Counterpart of :meth:`charge_reads` for the vectorized lane,
        which resolves and applies whole quiet windows of writes in a
        detached ndarray and syncs the result back in bulk via
        :meth:`replace_cells`.
        """
        self.writes_applied += count

    def replace_cells(
        self,
        values: Sequence[int],
        count_zeros: Optional[Callable[[int, int], int]] = None,
    ) -> None:
        """Overwrite the full contents in bulk (uncharged); recount trackers.

        The vectorized lane's window-exit sync: ``values`` must cover
        every cell.  Traffic is charged separately (the window counted
        its own reads/writes); zero-region trackers are recounted
        exactly, so incremental termination predicates stay coherent
        with the new contents.  ``count_zeros(start, stop)``, when
        given, must return the exact zero count of ``values[start:stop]``
        — callers holding the data in an ndarray use it to replace the
        per-cell Python scan with one array reduction.
        """
        cells = self._cells
        if len(values) != len(cells):
            raise MemoryError_(
                f"replace_cells got {len(values)} values for "
                f"{len(cells)} cells"
            )
        cells[:] = values
        if self._faulty:
            # Dead cells never change: re-pin the poison the bulk assign
            # may have clobbered, and recount trackers by scan (the
            # caller's count_zeros saw the pre-pin values).
            for address in self._faulty:
                cells[address] = POISON
            count_zeros = None
        for watcher in self._watchers:
            # The touched set is "everything": watchers must do a full
            # refresh rather than enumerate every address.
            watcher.overflow = True
        for tracker in self._trackers:
            if count_zeros is not None:
                tracker.zeros = int(count_zeros(tracker.start, tracker.stop))
            else:
                tracker.zeros = cells[tracker.start : tracker.stop].count(0)

    def commit_resolved(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Apply pre-validated resolved writes (one per address).

        Fast-path equivalent of calling :meth:`write` per pair: charges
        one write per pair and keeps zero-region trackers exact.
        Addresses must already be in range.
        """
        self.writes_applied += len(pairs)
        if self._faulty:
            pairs = [
                (address, value) for address, value in pairs
                if address not in self._faulty
            ]
        cells = self._cells
        trackers = self._trackers
        watchers = self._watchers
        if trackers or watchers:
            for address, value in pairs:
                old = cells[address]
                cells[address] = value
                if trackers and (old == 0) != (value == 0):
                    delta = 1 if value == 0 else -1
                    for tracker in trackers:
                        if tracker.start <= address < tracker.stop:
                            tracker.zeros += delta
                for watcher in watchers:
                    watcher.addresses.add(address)
        else:
            for address, value in pairs:
                cells[address] = value

    def attach_watcher(self) -> WriteWatcher:
        """Register (and return) a journal of subsequently written cells."""
        watcher = WriteWatcher()
        self._watchers.append(watcher)
        return watcher

    def detach_watcher(self, watcher: WriteWatcher) -> None:
        """Unregister a journal returned by :meth:`attach_watcher`."""
        if watcher in self._watchers:
            self._watchers.remove(watcher)

    def sync_cells(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Apply externally resolved cell contents (uncharged, unjournaled).

        The resident vector window's dirty-cell writeback: like
        :meth:`replace_cells` it charges no traffic (the window counted
        its own reads/writes) and keeps zero-region trackers exact, but
        it touches only the given cells — O(dirty) instead of O(M) —
        and does *not* notify watchers (the caller IS the watcher's
        owner, syncing its own mirror; after it, mirror and memory
        agree, so it clears its journal instead).
        """
        cells = self._cells
        trackers = self._trackers
        faulty = self._faulty
        if trackers:
            for address, value in pairs:
                if address in faulty:
                    continue
                old = cells[address]
                cells[address] = value
                if (old == 0) != (value == 0):
                    delta = 1 if value == 0 else -1
                    for tracker in trackers:
                        if tracker.start <= address < tracker.stop:
                            tracker.zeros += delta
        else:
            for address, value in pairs:
                if address in faulty:
                    continue
                cells[address] = value

    def track_zeros(self, start: int, length: int) -> ZeroRegionTracker:
        """Register (or fetch) a zero-count tracker over a cell region.

        The initial count is taken by one scan; afterwards every write
        path maintains it incrementally.  Idempotent per (start, length).
        """
        if length < 0:
            raise MemoryError_(
                f"tracked region length must be non-negative, got {length}"
            )
        if length:
            self._validate_address(start)
            if start + length > len(self._cells):
                raise MemoryError_(
                    f"tracked region [{start}, {start + length}) exceeds "
                    f"memory size {len(self._cells)}"
                )
        stop = start + length
        for tracker in self._trackers:
            if tracker.start == start and tracker.stop == stop:
                return tracker
        zeros = self._cells[start:stop].count(0)
        tracker = ZeroRegionTracker(start, stop, zeros)
        self._trackers.append(tracker)
        return tracker

    # ------------------------------------------------------------------ #
    # static memory faults (Chlebus–Gasieniec–Pelc model)
    # ------------------------------------------------------------------ #

    def mark_faulty(self, addresses: Iterable[int]) -> None:
        """Declare cells permanently dead (static memory faults).

        From this call on, every write path silently drops writes to
        these cells and reads return :data:`POISON`.  Faults never heal;
        repeated calls accumulate.  The poison is pinned into the cell
        contents directly, so the machine's raw fast path and compiled
        kernels observe it with no read-path changes.  Zero-region
        trackers are updated (a dead cell counts as non-zero), which is
        deliberate: a tracker-based "all written" check can be *fooled*
        by poison, exactly as the CGP model intends — fault-aware
        algorithms must certify completion through live cells.
        """
        dead = []
        for address in addresses:
            self._validate_address(address)
            if address not in self._faulty:
                dead.append(address)
        if not dead:
            return
        self._faulty = self._faulty | frozenset(dead)
        for address in dead:
            old = self._cells[address]
            self._cells[address] = POISON
            if self._trackers and old == 0:
                for tracker in self._trackers:
                    if tracker.start <= address < tracker.stop:
                        tracker.zeros -= 1
            if self._watchers:
                for watcher in self._watchers:
                    watcher.addresses.add(address)

    @property
    def has_faults(self) -> bool:
        """Whether any cell has been marked dead."""
        return bool(self._faulty)

    def faulty_addresses(self) -> frozenset:
        """The (immutable) set of dead cell addresses."""
        return self._faulty

    def is_faulty(self, address: int) -> bool:
        return address in self._faulty


class MemoryReader:
    """A read-only facade over :class:`SharedMemory`.

    Handed to adversaries (which are omniscient about machine state but
    must not mutate it) and to termination predicates.  Dense
    adversaries read cells on every tick (the halving adversary reads
    every x cell), so :meth:`read` and ``[]`` take the machine's raw
    route: an in-range ``int`` address indexes the backing list
    directly, and anything else goes through :meth:`SharedMemory.peek`,
    which serves or rejects it exactly as before.
    """

    def __init__(self, memory: SharedMemory) -> None:
        self._memory = memory
        self._cells = memory.raw_cells()

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def size(self) -> int:
        return self._memory.size

    def read(self, address: int) -> int:
        cells = self._cells
        if address.__class__ is int and 0 <= address < len(cells):
            return cells[address]
        return self._memory.peek(address)

    __getitem__ = read

    def region(self, start: int, length: int) -> List[int]:
        return self._memory.region(start, length)

    def snapshot(self) -> List[int]:
        return self._memory.snapshot()

    def track_zeros(self, start: int, length: int) -> ZeroRegionTracker:
        """Register a zero-region tracker (termination-predicate use).

        Mutates only the memory's *accounting* structures, never model
        state, so it is safe to expose on the read-only facade.
        """
        return self._memory.track_zeros(start, length)

    @property
    def has_faults(self) -> bool:
        return self._memory.has_faults

    def faulty_addresses(self) -> frozenset:
        return self._memory.faulty_addresses()

    def is_faulty(self, address: int) -> bool:
        return self._memory.is_faulty(address)
