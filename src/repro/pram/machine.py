"""The restartable fail-stop CRCW PRAM, executed in lock step.

One machine tick implements one synchronous PRAM clock step for every
running processor:

1. restart events from the previous tick take effect (revived processors
   run their first cycle on the *next* tick — they restart "at their
   initial state with their PID as their only knowledge");
2. every running processor's pending update cycle performs its reads
   against the memory state at the start of the tick (synchronous PRAM
   semantics) and its fixed compute step produces a write set;
3. the on-line adversary inspects everything (clock, memory, statuses,
   pending cycles *including* their computed write sets) and rules: for
   each processor, survive, or fail after a prefix of its atomic writes;
4. the machine enforces the model's progress condition — at least one
   pending cycle must complete per tick — by vetoing the adversary on one
   processor if necessary (configurable);
5. the surviving writes are resolved under the machine's CRCW policy and
   applied atomically;
6. processors whose cycles completed are charged one unit of completed
   work and advance to their next cycle; interrupted cycles are charged
   only under the S' measure.

This is a *model-level* simulator: "work" is the paper's completed-work
measure, not wall-clock time, so the results are exact in the paper's own
cost model regardless of host parallelism.

Five tick bodies implement these semantics:

* the **reference tick** (``fast_path=False``) is the original
  straight-line implementation — it rebuilds every per-tick structure
  from scratch and validates every memory access, and serves as the
  executable specification;
* the **observable fast tick** (``fast_path=True``, the default) runs
  every ``step()``: the same phases in the same order, with near-zero
  per-tick allocation.  Cell reads go straight to the backing array
  after an explicit bounds/type check (invalid accesses fall back to
  the validated reader so errors are identical), per-PID work counters
  are array-backed, and the CRCW resolve call is skipped when every
  address has a single writer and the policy declares singleton
  resolution the identity, or when its writers all agree and the
  policy declares agreeing resolution the identity (the normal COMMON
  CRCW tick, where every active processor writes one value into one
  cell).  It builds the adversary view and consults the adversary on
  every tick, quiet or absent adversaries included, exactly as the
  reference does.  A one-time program-validation gate runs each
  distinct cycle label through the fully validated reference
  collection once before trusting its shape.  Compiled-kernel
  processors evaluate their pending cycle through the kernel's
  ``observe`` rather than the cycle's read-spec and write closures (the
  gate cross-checks the two); their task cycles are interpreted like a
  generator's.  Under a dense adversary every tick is observable, so
  each running processor costs two passes: collect builds its
  ``PendingCycleView`` into the view (with ``tuple.__new__``), from
  which the commit stages its writes, and settle moves it on, a kernel
  processor failing, completing and restarting in place.  The running
  list and the failed pids are cached and follow the tick's own
  failures, halts and restarts, so a tick with none does no status
  work; the view's status table is built only if read.  A status-epoch
  cell, bumped by transitions made outside a tick, forces a rebuild.

The other three bodies run only inside **quiet windows**.
:meth:`Machine.run` is event-driven: before each tick it asks the
adversary for its *event horizon* (``Adversary.quiet_until`` — the
earliest future tick at which it might act; ``NoFailures`` and an
absent adversary never act, and scheduled/budget/periodic adversaries
know their horizons exactly).  A horizon is a promise about ``decide``,
trusted under :func:`repro.util.hooks.trusted_hook`.  All ticks
strictly inside the horizon run in a window
(``fast_forward=True``, the default) that builds no adversary view and
skips the consult and failure phases, since every cycle completes
there; per-PID ledger charges are flushed once per status generation,
while the status epoch and the ``until`` goal are still checked every
tick, so halting, termination and the ledger stay exact.  A window
tick is one of:

* the **kernel quiet tick**, for compiled kernels under a fusable
  window (concurrent reads and an identity singleton resolve):
  each stepper's ``quiet_step`` reads raw cells and stages flat writes,
  except for a Write-All task cycle (user code, such as a Theorem 4.1
  simulator phase's), which the machine interprets with the same checks
  as a generator's cycle;
* the **generic quiet tick**, for everything else (generator programs,
  EREW reads, stateful policies such as ``RotatingArbitraryCrcw``):
  the observable tick's collect and resolve without the adversary,
  then each processor advances;
* the **vector window**, for vectorized programs on fusable windows
  over fault-free memory, when the dispatch cost model
  (:mod:`repro.pram.dispatch`) predicts it faster: whole bursts of
  ticks as numpy array operations.

A composed ``Tracer`` pins the horizon to one tick, keeping traces
tick-exact.  The differential suite
(``tests/pram/test_fast_path_differential.py``) holds every lane
ledger-, memory- and trace-identical to the reference across the
algorithm × adversary matrix, windows included.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.pram.compiled import TASK_CYCLE
from repro.pram.cycles import Cycle, Write
from repro.pram.errors import (
    AdversaryError,
    ProgramError,
    ProgressViolationError,
    TickLimitError,
)
from repro.pram.failures import (
    AFTER_ALL_WRITES,
    Decision,
    FailureTag,
)
from repro.pram.ledger import PidCounter, RunLedger
from repro.pram.memory import MemoryReader, SharedMemory
from repro.pram.policies import CommonCrcw, WritePolicy
from repro.pram.processor import Processor, ProcessorStatus, ProgramFactory
from repro.pram.view import PendingCycleView, TickView
from repro.util.hooks import trusted_hook

#: Termination predicate: receives a read-only memory view.
UntilPredicate = Callable[[MemoryReader], bool]

#: Event horizon of an absent adversary: "never acts again".
#: (Numerically equal to repro.faults.base.QUIET_FOREVER; the pram layer
#: cannot import the faults layer, which builds on top of it.)
_NO_HORIZON = 1 << 62

_new_tuple = tuple.__new__
_pid_of = operator.attrgetter("pid")
_RUNNING = ProcessorStatus.RUNNING

#: Outcomes of one fast-forwarded quiescent window (see
#: Machine._run_quiet_window).
_WINDOW_RAN = "ran"
_WINDOW_GOAL = "goal"
_WINDOW_IDLE = "idle"


def _as_index(value: object) -> Optional[int]:
    """``value`` as an ``int`` pid or write count, or None if it is not one.

    Accepts what :func:`operator.index` accepts (``int`` and integer
    types such as numpy's) except ``bool``, as :class:`SharedMemory`
    rejects bool addresses and values.
    """
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        return None


class Machine:
    """A P-processor restartable fail-stop PRAM over shared memory."""

    def __init__(
        self,
        num_processors: int,
        memory: SharedMemory,
        policy: Optional[WritePolicy] = None,
        adversary: Optional[object] = None,
        max_reads: int = 4,
        max_writes: int = 2,
        allow_snapshot: bool = False,
        enforce_progress: bool = True,
        strict_progress: bool = False,
        fairness_window: Optional[int] = None,
        context: Optional[Dict[str, object]] = None,
        fast_path: bool = True,
        fast_forward: bool = True,
        phase_counters: Optional[object] = None,
    ) -> None:
        if num_processors <= 0:
            raise ValueError(
                f"machine needs at least one processor, got {num_processors}"
            )
        self.num_processors = num_processors
        self.memory = memory
        self.policy = policy if policy is not None else CommonCrcw()
        self.adversary = adversary
        self.max_reads = max_reads
        self.max_writes = max_writes
        self.allow_snapshot = allow_snapshot
        self.enforce_progress = enforce_progress
        self.strict_progress = strict_progress
        # Optional fairness guarantee: a processor whose attempts were
        # interrupted `fairness_window` consecutive times cannot be
        # interrupted again until it completes a cycle.  This is the
        # "eventual progress" reading of the model's condition 2.(i) —
        # without it, an adversary can satisfy the letter of the
        # condition by letting only repeatable read-only cycles (e.g.
        # algorithm V's waiter polls) complete, while starving every
        # productive cycle forever.  None disables the guarantee.
        if fairness_window is not None and fairness_window < 1:
            raise ValueError(
                f"fairness_window must be >= 1 or None, got {fairness_window}"
            )
        self.fairness_window = fairness_window
        self._consecutive_interrupts: Dict[int, int] = {}
        self.context: Dict[str, object] = dict(context or {})
        self.ledger = RunLedger(
            completed_by_pid=PidCounter(num_processors),
            attempted_by_pid=PidCounter(num_processors),
        )
        self._processors: List[Processor] = []
        self._reader = MemoryReader(memory)
        #: Selects the optimized tick implementation (see module docs).
        self.fast_path = fast_path
        #: Lets :meth:`run` batch ticks across adversary-promised
        #: quiescent windows (the event-horizon protocol of
        #: ``repro.faults.base.Adversary.quiet_until``).  Only effective
        #: together with ``fast_path``; ``False`` is the escape hatch
        #: that forces one adversary consult per tick.
        self.fast_forward = fast_forward
        #: Optional per-phase wall-clock accumulator (duck-typed, see
        #: repro.perf.phases.PhaseCounters).  Instrumented on the fast
        #: path only so the reference path stays byte-for-byte the
        #: executable specification.
        self.phase_counters = phase_counters
        # -- fast-path state ------------------------------------------- #
        # Status caches, by ascending PID, which the fast tick updates
        # from its own transitions.  The shared status-epoch cell moves
        # on every other transition and triggers a full rebuild.
        self._status_epoch: List[int] = [0]
        self._cache_epoch = -1
        self._running_cache: List[Processor] = []
        self._failed_pids: Tuple[int, ...] = ()
        # Raw cell array (validated accesses fall back to memory.read /
        # memory.write).
        self._cells = memory.raw_cells()
        # One-time program-validation gate: cycle labels whose shape ran
        # through the fully validated reference collection once.
        self._validated_labels: set = set()
        # Memoized trusted event-horizon hook of the currently-attached
        # adversary (the sentinel object never compares `is` to a real
        # adversary).
        self._quiet_hook_for: object = object()
        self._quiet_hook: Optional[Callable[[int], int]] = None
        # Reusable per-tick scratch (the point is zero steady-state
        # allocation; cleared, never reallocated).
        self._resolved_scratch: List[Tuple[int, int]] = []
        self._single_scratch: Dict[int, Tuple[int, int]] = {}
        # Compiled-kernel lane (see repro.pram.compiled): set by
        # load_program when a kernel factory is installed; the kernel
        # quiet tick stages flat (address, value) pairs here.  Batched
        # commits collect one resolved value per address in
        # _staged_writes.
        self._kernel_mode = False
        self._kernel_raw_scratch: List[int] = []
        self._kernel_ends_scratch: List[int] = []
        self._staged_writes: Dict[int, int] = {}
        # Vectorized lane (see repro.pram.vectorized): set by
        # load_program when a whole-machine vector program is installed;
        # fused quiet windows then run as batched ndarray bursts.
        self._vector: Optional[object] = None
        # Resident vector window: persists across consecutive quiet
        # windows (mirror + packed columns stay warm) and is flushed by
        # _flush_resident before anything outside the vector lane can
        # observe memory or per-PID kernel state.  _dispatch holds the
        # calibrated cost model that picks vec vs scalar per fused
        # window.
        self._resident: Optional[object] = None
        self._dispatch: Optional[object] = None

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def load_program(
        self,
        program_factory: ProgramFactory,
        compiled_program: Optional[object] = None,
        vectorized_program: Optional[object] = None,
    ) -> None:
        """Install the program on all P processors and start them.

        ``compiled_program`` optionally installs a compiled kernel
        factory (see :mod:`repro.pram.compiled`) alongside the program:
        every processor then advances through its per-PID stepper
        instead of a generator, and quiet-window ticks take the fused
        kernel lane.  Callers are expected to route the factory through
        :func:`repro.pram.compiled.resolve_kernel`, which applies the
        trust rule for promise hooks and the ``compiled=False`` opt-out.

        ``vectorized_program`` optionally installs a whole-machine
        vector program (see :mod:`repro.pram.vectorized`, routed through
        ``resolve_vectorized``): its per-PID scalar kernels then drive
        every observable tick exactly like the compiled lane (it
        supersedes ``compiled_program``), and the calibrated cost
        model in :mod:`repro.pram.dispatch` picks, per fused quiet
        window, batched array bursts or the per-processor scalar
        steps.  Either choice produces bit-identical results; dispatch
        only decides which one is faster.
        """
        if self._resident is not None:
            self._resident.close()
            self._resident = None
        self._vector = vectorized_program
        if vectorized_program is not None:
            compiled_program = vectorized_program.pid_stepper
        self._kernel_mode = compiled_program is not None
        self._processors = [
            Processor(pid, program_factory, compiled_program)
            for pid in range(self.num_processors)
        ]
        for processor in self._processors:
            processor.bind_epoch_cell(self._status_epoch)
            processor.spawn()

    @property
    def processors(self) -> Tuple[Processor, ...]:
        return tuple(self._processors)

    @property
    def time(self) -> int:
        """Ticks executed so far."""
        return self.ledger.ticks

    def statuses(self) -> Dict[int, ProcessorStatus]:
        return {proc.pid: proc.status for proc in self._processors}

    # ------------------------------------------------------------------ #
    # one tick
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute one clock tick.

        Returns ``True`` when the machine is still live (some processor is
        running or failed-but-restartable), ``False`` once every processor
        has halted.
        """
        if not self._processors:
            raise ProgramError("no program loaded; call load_program() first")
        if self._resident is not None:
            # Observable tick: the adversary view, traces, and the
            # scalar kernels all read memory / per-PID state directly.
            self._resident.flush()
        if self.fast_path:
            return self._step_fast()
        return self._step_reference()

    # ================================================================== #
    # reference tick (executable specification; fast_path=False)
    # ================================================================== #

    def _step_reference(self) -> bool:
        running = [proc for proc in self._processors if proc.is_running]
        failed = [proc.pid for proc in self._processors if proc.is_failed]
        if not running and not failed:
            return False

        self.ledger.ticks += 1
        tick = self.ledger.ticks

        pending = self._collect_pending(running)
        view = TickView(
            time=tick,
            memory=self._reader,
            statuses=self.statuses(),
            pending=pending,
            ledger=self.ledger,
            context=self.context,
        )
        decision = self._consult_adversary(view)
        failures = self._validated_failures(decision, pending)
        failures = self._apply_fairness(failures)
        stalls = self._validated_stalls(decision, pending)
        failures, stalls = self._apply_progress_policy(
            failures, pending, stalls
        )

        self._apply_writes(pending, failures, stalls)
        completed_this_tick = self._settle_processors(
            pending, failures, tick, stalls
        )
        self.ledger.completed_per_tick.append(completed_this_tick)
        self._apply_restarts(decision, failures, pending, tick, failed)
        self._sync_traffic()
        return True

    # -- tick sub-phases ------------------------------------------------ #

    def _collect_pending(
        self, running: List[Processor]
    ) -> Dict[int, PendingCycleView]:
        """Every running processor's cycle, through the validated route.

        Each processor's cycle takes :meth:`_collect_one_validated` with
        no shared snapshot, so a snapshot cycle reads a fresh tuple per
        processor, unlike the fast lanes' one per tick: programs must
        not tell the two apart.
        """
        pending: Dict[int, PendingCycleView] = {}
        readers_by_address: Dict[int, List[int]] = defaultdict(list)
        for processor in running:
            pending[processor.pid] = self._collect_one_validated(
                processor, processor.pending_cycle, readers_by_address
            )
        for address, reader_pids in readers_by_address.items():
            self.policy.check_reads(address, reader_pids)
        return pending

    def _consult_adversary(self, view: TickView) -> Decision:
        if self.adversary is None:
            return Decision.none()
        decision = self.adversary.decide(view)
        if decision is None:
            return Decision.none()
        if not isinstance(decision, Decision):
            raise AdversaryError(
                f"adversary returned {decision!r}, expected a Decision"
            )
        return decision

    def _validated_failures(
        self, decision: Decision, pending: Mapping[int, PendingCycleView]
    ) -> Dict[int, int]:
        failures: Dict[int, int] = {}
        for pid, writes_applied in decision.failures.items():
            key = pid if pid.__class__ is int else _as_index(pid)
            if key is None or key not in pending:
                raise AdversaryError(
                    f"adversary failed pid {pid!r}, which has no pending cycle"
                )
            write_count = len(pending[key].writes)
            count = (
                writes_applied
                if writes_applied.__class__ is int
                else _as_index(writes_applied)
            )
            if count == AFTER_ALL_WRITES:
                count = write_count
            if count is None or not 0 <= count <= write_count:
                raise AdversaryError(
                    f"adversary applied {writes_applied!r} writes for pid "
                    f"{key}, cycle has {write_count}"
                )
            failures[key] = count
        return failures

    def _validated_stalls(
        self, decision: Decision, pending: Mapping[int, PendingCycleView]
    ) -> FrozenSet[int]:
        """Validate the decision's stall set (heterogeneous-speed model).

        A stalled processor's pending cycle is deferred: not executed,
        not charged, not failed.  The processor keeps its private state
        and re-attempts the same cycle (with fresh reads) on the next
        tick it is allowed to run.  Stalls never enter the failure
        pattern.  Only pending PIDs may be stalled (as for failures, a
        pid is what :func:`_as_index` accepts), and a PID may not be
        both stalled and failed in one decision.
        """
        stalls = decision.stalls
        if not stalls:
            return frozenset()
        failed = {
            pid if pid.__class__ is int else _as_index(pid)
            for pid in decision.failures
        }
        keys = set()
        for pid in stalls:
            key = pid if pid.__class__ is int else _as_index(pid)
            if key is None or key not in pending:
                raise AdversaryError(
                    f"adversary stalled pid {pid!r}, which has no pending "
                    f"cycle"
                )
            if key in failed:
                raise AdversaryError(
                    f"adversary both stalled and failed pid {key}"
                )
            keys.add(key)
        return frozenset(keys)

    def _apply_fairness(self, failures: Dict[int, int]) -> Dict[int, int]:
        if self.fairness_window is None:
            return failures
        for pid in list(failures):
            if self._consecutive_interrupts.get(pid, 0) >= self.fairness_window:
                del failures[pid]
                self.ledger.fairness_vetoes += 1
        return failures

    def _cycle_completes(
        self, pid: int, failures: Mapping[int, int], pending: Mapping[int, PendingCycleView]
    ) -> bool:
        """A cycle completes iff the processor was not failed during it.

        A failure with ``writes_applied == len(writes)`` leaves every
        atomic write in memory but the cycle still counts as interrupted
        (charged to S' only): the processor stopped before reaching the
        cycle boundary.
        """
        return pid not in failures

    def _apply_progress_policy(
        self,
        failures: Dict[int, int],
        pending: Mapping[int, PendingCycleView],
        stalls: FrozenSet[int] = frozenset(),
    ) -> Tuple[Dict[int, int], FrozenSet[int]]:
        if not pending:
            return failures, stalls
        if any(
            pid not in failures and pid not in stalls for pid in pending
        ):
            return failures, stalls
        # Every pending cycle would be interrupted or deferred: the
        # model's progress condition (at least one completing update
        # cycle at any time) is violated.
        if self.strict_progress:
            raise ProgressViolationError(
                "adversary interrupted every pending update cycle at tick "
                f"{self.ledger.ticks}"
            )
        if not self.enforce_progress:
            return failures, stalls
        if failures:
            spared_pid = min(failures)
            del failures[spared_pid]
        else:
            # Everyone pending was stalled: un-stall the lowest PID so
            # one cycle completes this tick.
            stalls = stalls - {min(stalls)}
        self.ledger.progress_vetoes += 1
        return failures, stalls

    def _apply_writes(
        self,
        pending: Mapping[int, PendingCycleView],
        failures: Mapping[int, int],
        stalls: FrozenSet[int] = frozenset(),
    ) -> None:
        writers_by_address: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for pid in sorted(pending):
            if pid in stalls:
                continue  # deferred cycle: its writes never happen
            entry = pending[pid]
            if pid in failures:
                surviving: Tuple[Write, ...] = entry.writes[: failures[pid]]
            else:
                surviving = entry.writes
            for write in surviving:
                writers_by_address[write.address].append((pid, write.value))
        for address in sorted(writers_by_address):
            writers = writers_by_address[address]
            value = self.policy.resolve(address, writers)
            self.memory.write(address, value)

    def _settle_processors(
        self,
        pending: Mapping[int, PendingCycleView],
        failures: Mapping[int, int],
        tick: int,
        stalls: FrozenSet[int] = frozenset(),
    ) -> int:
        completed_this_tick = 0
        for pid in sorted(pending):
            if pid in stalls:
                # Deferred: no charge, no completion, no failure.  The
                # processor's pending cycle stays cached and re-collects
                # (with fresh reads) on its next un-stalled tick.
                continue
            processor = self._processors[pid]
            self.ledger.charge_attempt(pid)
            completes = self._cycle_completes(pid, failures, pending)
            if completes:
                self.ledger.charge_completion(pid)
                completed_this_tick += 1
                self._consecutive_interrupts[pid] = 0
            else:
                self._consecutive_interrupts[pid] = (
                    self._consecutive_interrupts.get(pid, 0) + 1
                )
            if pid in failures:
                self.ledger.pattern.record(FailureTag.FAILURE, pid, tick)
                processor.fail()
            else:
                processor.complete_cycle(pending[pid].read_values)
        return completed_this_tick

    def _apply_restarts(
        self,
        decision: Decision,
        failures: Mapping[int, int],
        pending: Mapping[int, PendingCycleView],
        tick: int,
        failed_pids: Sequence[int],
    ) -> List[Processor]:
        """Apply the decision's restarts; returns the revived processors.

        Restarts land in ascending PID order and reach the pattern as
        one record, also when one raises.  Kernel processors restart in
        place (``reset`` is :meth:`Processor.spawn`'s compiled branch).
        ``failed_pids`` are the pids failed when the tick began,
        ascending: if nothing ran and the adversary restarted no one,
        the progress rule revives the lowest.
        """
        pids: List[int] = []
        for pid in decision.restarts:
            key = pid if pid.__class__ is int else _as_index(pid)
            if key is None:
                raise AdversaryError(f"adversary restarted unknown pid {pid!r}")
            pids.append(key)
        if not pids:
            if not (self.enforce_progress and not pending and failed_pids):
                return []
            # Progress policy for an all-failed machine: something must
            # be executing an update cycle.
            pids.append(failed_pids[0])
            self.ledger.progress_vetoes += 1
        pids.sort()
        processors = self._processors
        kernel = self._kernel_mode
        running = ProcessorStatus.RUNNING
        revived: List[Processor] = []
        try:
            for pid in pids:
                if not 0 <= pid < self.num_processors:
                    raise AdversaryError(
                        f"adversary restarted unknown pid {pid}"
                    )
                processor = processors[pid]
                if processor.status is not ProcessorStatus.FAILED:
                    if processor.status is running and pid in decision.failures:
                        # The progress veto cancelled this pid's failure,
                        # so its paired restart is vacuous — skip it.
                        continue
                    raise AdversaryError(
                        f"adversary restarted pid {pid}, which is "
                        f"{processor.status.value}"
                    )
                revived.append(processor)
                if kernel:
                    processor.restart_count += 1
                    processor.status = (
                        running if processor._stepper.reset()
                        else ProcessorStatus.HALTED
                    )
                else:
                    processor.restart()
        finally:
            if revived:
                self.ledger.pattern.record_many(
                    FailureTag.RESTART, map(_pid_of, revived), tick
                )
                self._status_epoch[0] += 1
        return revived

    def _sync_traffic(self) -> None:
        self.ledger.memory_reads = self.memory.reads_served
        self.ledger.memory_writes = self.memory.writes_applied

    # ================================================================== #
    # fast tick (allocation-lean; semantics identical to the reference)
    # ================================================================== #

    def _refresh_status_caches(self) -> None:
        """Walk every processor if a transition escaped the caches."""
        epoch = self._status_epoch[0]
        if epoch == self._cache_epoch:
            return
        running: List[Processor] = []
        failed: List[int] = []
        for proc in self._processors:
            status = proc.status
            if status is ProcessorStatus.RUNNING:
                running.append(proc)
            elif status is ProcessorStatus.FAILED:
                failed.append(proc.pid)
        self._running_cache = running
        self._failed_pids = tuple(failed)
        self._cache_epoch = epoch

    def _event_horizon(self) -> int:
        """First future tick at which the adversary might act.

        An absent adversary never acts.  An adversary's ``quiet_until``
        horizon is a promise about its ``decide``, so it is trusted under
        :func:`repro.util.hooks.trusted_hook`; an adversary without a
        trusted hook is consulted every tick.  Malformed or stale
        horizons are clamped to the always-sound next tick.
        """
        adversary = self.adversary
        if adversary is None:
            return _NO_HORIZON
        if adversary is not self._quiet_hook_for:
            # self.adversary is public and may be swapped between runs.
            self._quiet_hook_for = adversary
            self._quiet_hook = trusted_hook(adversary, "quiet_until", "decide")
        tick = self.ledger.ticks
        hook = self._quiet_hook
        if hook is None:
            return tick + 1
        horizon = hook(tick)
        if not isinstance(horizon, int):
            raise AdversaryError(
                f"adversary quiet_until({tick}) returned {horizon!r}, "
                "expected an int tick number"
            )
        return horizon if horizon > tick else tick + 1

    def _step_fast(self) -> bool:
        if self._status_epoch[0] != self._cache_epoch:
            self._refresh_status_caches()
        running = self._running_cache
        if not running and not self._failed_pids:
            return False
        self.ledger.ticks += 1
        self._tick_fast(self.ledger.ticks, running)
        self._sync_traffic()
        return True

    def _collect_fast(
        self, running: List[Processor], views: bool = True
    ) -> Dict[int, tuple]:
        """Each running processor's ``(pid, cycle, values, writes)``, by PID.

        :class:`PendingCycleView` records, or for a window tick, which no
        adversary sees, plain tuples (several times cheaper to build).
        """
        policy = self.policy
        if self._kernel_mode and policy.allows_concurrent_reads:
            return self._collect_observed(running, views)
        readers_by_address: Optional[Dict[int, List[int]]] = (
            None if policy.allows_concurrent_reads else defaultdict(list)
        )
        pending: Dict[int, tuple] = {}
        reads_charged = self._interpret(
            running, readers_by_address, pending, views
        )
        if readers_by_address is not None:
            for address, reader_pids in readers_by_address.items():
                policy.check_reads(address, reader_pids)
        self.memory.charge_reads(reads_charged)
        return pending

    def _interpret(
        self,
        processors: Sequence[Processor],
        readers_by_address: Optional[Dict[int, List[int]]],
        pending: Dict[int, tuple],
        views: bool,
    ) -> int:
        """Interpret each processor's pending cycle into ``pending``.

        The one route for every cycle the machine evaluates itself:
        generator cycles (:meth:`_collect_fast`) and the task cycles of
        compiled kernels (:meth:`_interpret_task`).  Stores each
        processor's record (see :meth:`_collect_fast`) under its PID and
        returns the reads to charge.  The first occurrence of a label takes the
        validation gate (:meth:`_collect_one_validated`, which charges
        its reads itself); later ones read straight from the cell array
        after a type/bounds check, with invalid accesses routed through
        the validated reader so errors match the reference path
        exactly, and are held to the read and write budgets.

        No cell changes during a call, so every snapshot cycle of the
        call reads one tuple of the memory, built on first use: a tick
        costs one O(size) copy, not one per processor.
        """
        memory = self.memory
        cells = self._cells
        size = len(cells)
        max_reads = self.max_reads
        max_writes = self.max_writes
        validated = self._validated_labels
        reads_charged = 0
        snapshot: Optional[Tuple[int, ...]] = None
        for processor in processors:
            cycle = processor._pending
            if cycle is None:
                # Compiled kernels materialize their pending cycle only
                # for observed ticks; a generator processor with nothing
                # pending raises the standard ProgramError here.
                cycle = processor.materialize_pending()
            label = cycle.label
            if label not in validated:
                entry = self._collect_one_validated(
                    processor, cycle, readers_by_address, snapshot
                )
                if cycle.is_snapshot:
                    snapshot = entry.read_values
                pending[processor.pid] = entry
                validated.add(label)
                continue
            reads = cycle.reads
            if type(reads) is tuple:
                if len(reads) > max_reads:
                    raise ProgramError(
                        f"pid {processor.pid}: cycle reads {len(reads)} "
                        f"cells, limit is {self.max_reads} "
                        f"(label={cycle.label!r})"
                    )
                value_list: List[int] = []
                for spec in reads:
                    if spec.__class__ is int:
                        address = spec
                    elif spec is None:
                        value_list.append(0)
                        continue
                    else:
                        # The validation gate pinned this label's shape:
                        # non-int, non-None specs are callables.
                        address = spec(tuple(value_list))
                        if address is None:
                            value_list.append(0)
                            continue
                    if address.__class__ is int and 0 <= address < size:
                        value_list.append(cells[address])
                        reads_charged += 1
                    else:
                        # Exotic-but-valid addresses succeed (and charge
                        # themselves); invalid ones raise MemoryError_.
                        value_list.append(memory.read(address))
                    if readers_by_address is not None:
                        readers_by_address[address].append(processor.pid)
                values: Tuple[int, ...] = tuple(value_list)
            elif cycle.is_snapshot:
                if not self.allow_snapshot:
                    raise ProgramError(
                        f"pid {processor.pid}: snapshot read on a machine "
                        f"without allow_snapshot (label={cycle.label!r})"
                    )
                if snapshot is None:
                    snapshot = tuple(memory.snapshot())
                values = snapshot
                reads_charged += 1  # unit cost by assumption
            else:
                cycle.read_specs()  # raises the standard ProgramError
                raise AssertionError("unreachable")  # pragma: no cover
            writes_spec = cycle.writes
            writes = writes_spec(values) if callable(writes_spec) else writes_spec
            if len(writes) > max_writes:
                raise ProgramError(
                    f"pid {processor.pid}: cycle writes {len(writes)} cells, "
                    f"limit is {self.max_writes} (label={cycle.label!r})"
                )
            pid = processor.pid
            pending[pid] = (
                _new_tuple(PendingCycleView, (pid, cycle, values, tuple(writes)))
                if views else (pid, cycle, values, writes)
            )
        return reads_charged

    def _interpret_task(self, processor: Processor, cycle: Cycle) -> tuple:
        """A kernel's task cycle through :meth:`_interpret`.

        Task cycles are user code, which a kernel leaves to the machine
        (``quiet_step`` returned :data:`TASK_CYCLE`, ``observe`` None).
        ``cycle`` is the stepper's ``current_cycle()``, cached as the
        processor's pending cycle for the interpretation only.  Returns
        ``(values, writes, reads to charge)``.
        """
        out: Dict[int, tuple] = {}
        processor._pending = cycle
        try:
            reads = self._interpret((processor,), None, out, False)
        finally:
            processor._pending = None
        entry = out[processor.pid]
        return entry[2], entry[3], reads

    def _collect_observed(
        self, running: List[Processor], views: bool
    ) -> Dict[int, tuple]:
        """Kernel-lane collection: each stepper evaluates its own cycle.

        The compiled-kernel analogue of :meth:`_collect_fast`.  The
        pending cycle is still materialized (it is part of the
        adversary's view), but its read values and write set come from
        the stepper's straight-line ``observe`` instead of calling the
        cycle's read-spec and write closures once per read.  The first
        occurrence of each label still takes the validated reference
        collection, cross-checked against ``observe`` (see
        :meth:`_collect_validated_observed`).  A task cycle, for which
        ``observe`` returns None, is interpreted like a generator's
        (:meth:`_interpret_task`).  Only used when the policy allows
        concurrent reads, so no per-address reader bookkeeping is needed.
        """
        cells = self._cells
        max_writes = self.max_writes
        validated = self._validated_labels
        pending: Dict[int, tuple] = {}
        reads_charged = 0
        for processor in running:
            # A running kernel processor's stepper is live (a halt moves
            # it out of the running list), so its cycle is built here
            # directly; nothing outside this tick reads it from the
            # processor, and observe() re-derives it after a stall.
            stepper = processor._stepper
            cycle = stepper.current_cycle()
            if cycle.__class__ is not Cycle:
                processor._check_cycle(cycle)
            if cycle.label not in validated:
                pending[processor.pid] = self._collect_validated_observed(
                    processor, cycle
                )
                validated.add(cycle.label)
                continue
            observed = stepper.observe(cells)
            if observed is None:
                values, writes, reads = self._interpret_task(
                    processor, cycle
                )
            else:
                values, writes, reads = observed
                if len(writes) > max_writes:
                    raise ProgramError(
                        f"pid {processor.pid}: cycle writes {len(writes)} "
                        f"cells, limit is {self.max_writes} "
                        f"(label={cycle.label!r})"
                    )
            reads_charged += reads
            pid = processor.pid
            pending[pid] = (
                _new_tuple(PendingCycleView, (pid, cycle, values, tuple(writes)))
                if views else (pid, cycle, values, writes)
            )
        self.memory.charge_reads(reads_charged)
        return pending

    def _collect_validated_observed(
        self, processor: Processor, cycle: Cycle
    ) -> PendingCycleView:
        """The validation gate for a kernel processor's first label.

        Collects through the fully validated reference route, then holds
        the kernel to its contract: ``observe`` must yield the same read
        values, writes and read charge.  A mismatch raises
        :class:`ProgramError` instead of silently diverging from the
        reference lane.
        """
        memory = self.memory
        before = memory.reads_served
        entry = self._collect_one_validated(processor, cycle, None)
        charged = memory.reads_served - before
        observed = processor._stepper.observe(self._cells)
        if observed is None:
            return entry  # a task cycle: the collection above is its own
        values, writes, reads = observed
        expected = (entry.read_values, entry.writes, charged)
        if (values, tuple(writes), reads) != expected:
            raise ProgramError(
                f"pid {processor.pid}: compiled kernel observe() returned "
                f"{(values, tuple(writes), reads)!r}, its cycle gives "
                f"{expected!r} (label={cycle.label!r})"
            )
        return entry

    def _collect_one_validated(
        self,
        processor: Processor,
        cycle: Cycle,
        readers_by_address: Optional[Dict[int, List[int]]],
        snapshot: Optional[Tuple[int, ...]] = None,
    ) -> PendingCycleView:
        """Reference-semantics collection of one cycle, as its view.

        Checks snapshot permission and the read budget, runs the read
        loop (with EREW bookkeeping into ``readers_by_address`` when
        given), and checks the write budget.  The reference tick
        collects every cycle here (:meth:`_collect_pending`); on the
        fast lanes it is the one-time program-validation gate: the first
        occurrence of each cycle label takes this fully validated route
        (type checks on every read spec and produced write), and later
        occurrences are trusted to keep the same shape and take the raw
        route.  A snapshot cycle reads ``snapshot``, the memory tuple
        its tick has already built, when there is one.
        """
        if cycle.is_snapshot:
            if not self.allow_snapshot:
                raise ProgramError(
                    f"pid {processor.pid}: snapshot read on a machine "
                    f"without allow_snapshot (label={cycle.label!r})"
                )
            values: Tuple[int, ...] = (
                snapshot if snapshot is not None
                else tuple(self.memory.snapshot())
            )
            self.memory.reads_served += 1  # unit cost by assumption
        else:
            specs = cycle.read_specs()
            if len(specs) > self.max_reads:
                raise ProgramError(
                    f"pid {processor.pid}: cycle reads {len(specs)} "
                    f"cells, limit is {self.max_reads} "
                    f"(label={cycle.label!r})"
                )
            value_list: List[int] = []
            for spec in specs:
                address = spec(tuple(value_list)) if callable(spec) else spec
                if address is None:
                    value_list.append(0)
                    continue
                value_list.append(self.memory.read(address))
                if readers_by_address is not None:
                    readers_by_address[address].append(processor.pid)
            values = tuple(value_list)
        writes = cycle.materialize_writes(values)
        if len(writes) > self.max_writes:
            raise ProgramError(
                f"pid {processor.pid}: cycle writes {len(writes)} cells, "
                f"limit is {self.max_writes} (label={cycle.label!r})"
            )
        return _new_tuple(
            PendingCycleView, (processor.pid, cycle, values, writes)
        )

    def _commit_pending(
        self,
        pending: Mapping[int, tuple],
        failures: Mapping[int, int],
        stalls: FrozenSet[int],
    ) -> None:
        """Resolve and apply the surviving writes of ``pending``'s records.

        The reference ``_apply_writes``: a failed pid keeps its first
        ``failures[pid]`` writes, a stalled pid none.  Under a policy
        whose singleton resolve is the identity, the survivors are
        staged from the records in one pass, keeping the first write to
        each address and, under ``agreeing_resolve_is_identity``,
        dropping later writes of the same value, which is what
        ``resolve`` returns for them.  At any other repeated address or
        an invalid one nothing has been written yet, and the whole tick
        is grouped by :meth:`_resolve_and_apply_raw`.
        """
        policy = self.policy
        if policy.singleton_resolve_is_identity:
            agreeing = policy.agreeing_resolve_is_identity
            staged = self._staged_writes
            staged.clear()
            size = len(self._cells)
            interrupted = failures or stalls
            clean = True
            for pid, entry in pending.items():
                writes = entry[3]
                if interrupted:
                    if pid in failures:
                        writes = writes[: failures[pid]]
                    elif pid in stalls:
                        continue
                for write in writes:
                    address = write.address
                    if address.__class__ is int and 0 <= address < size:
                        if address not in staged:
                            staged[address] = write.value
                            continue
                        if agreeing and staged[address] == write.value:
                            continue
                    clean = False
                    break
                if not clean:
                    break
            if clean:
                self.memory.commit_resolved(staged.items())
                return
        pids: List[int] = []
        ends: List[int] = []
        raw: List[int] = []
        for pid, entry in pending.items():
            if pid not in stalls:
                for write in entry[3][: failures.get(pid)]:
                    raw.append(write.address)
                    raw.append(write.value)
                pids.append(pid)
                ends.append(len(raw))
        self._resolve_and_apply_raw(pids, ends, raw)

    def _resolve_and_apply_raw(
        self, pids: Sequence[int], ends: List[int], raw: List[int]
    ) -> None:
        """Group flat ``address, value`` writes by address and commit them.

        The one grouping of colliding writers, for every tick body whose
        batch commit fell back: ``raw`` holds each writer's writes as
        flat pairs in cycle write order, ``ends[i]`` is writer ``i``'s
        end offset into ``raw`` and ``pids[i]`` its PID, in ascending
        PID order, so grouping order matches the reference
        ``_apply_writes``.  Addresses with one writer are collected in
        ``single``, the rest in ``groups``; :meth:`_commit_grouped`
        resolves and commits them.
        """
        single = self._single_scratch
        single.clear()
        groups: Optional[Dict[int, List[Tuple[int, int]]]] = None
        start = 0
        for index, pid in enumerate(pids):
            end = ends[index]
            i = start
            while i < end:
                address = raw[i]
                value = raw[i + 1]
                i += 2
                if groups is not None:
                    group = groups.get(address)
                    if group is not None:
                        group.append((pid, value))
                        continue
                prev = single.get(address)
                if prev is None:
                    single[address] = (pid, value)
                else:
                    if groups is None:
                        groups = {}
                    groups[address] = [prev, (pid, value)]
                    del single[address]
            start = end
        self._commit_grouped(single, groups)

    def _commit_grouped(
        self,
        single: Dict[int, Tuple[int, int]],
        groups: Optional[Dict[int, List[Tuple[int, int]]]],
    ) -> None:
        """Commit grouped writers: one batched commit or the reference path.

        With a policy whose singleton resolve is the identity, only the
        multi-writer ``groups`` need a resolve call, made in ascending
        address order as in the reference.  If one raises, the writes
        the reference would already have applied (every address below
        the failing one) are committed before the error propagates, so
        the partial state matches too.
        """
        policy = self.policy
        memory = self.memory
        if policy.singleton_resolve_is_identity:
            size = len(self._cells)
            resolved = self._resolved_scratch
            resolved.clear()
            clean = True
            for address, pid_value in single.items():
                if type(address) is int and 0 <= address < size:
                    resolved.append((address, pid_value[1]))
                else:
                    clean = False
                    break
            if clean and groups:
                for address in groups:
                    if not (type(address) is int and 0 <= address < size):
                        clean = False
                        break
                if clean:
                    resolve = policy.resolve
                    for address in sorted(groups):
                        try:
                            value = resolve(address, groups[address])
                        except Exception:
                            memory.commit_resolved([
                                pair for pair in resolved if pair[0] < address
                            ])
                            raise
                        resolved.append((address, value))
            if clean:
                memory.commit_resolved(resolved)
                return
        # General path: a stateful policy or an invalid address.
        # Reproduce the reference semantics exactly (same resolve calls,
        # same ascending-address application order, same errors and
        # partial state on error).
        writers_by_address: Dict[int, List[Tuple[int, int]]] = {
            address: [pid_value] for address, pid_value in single.items()
        }
        if groups:
            writers_by_address.update(groups)
        resolve = policy.resolve
        write = memory.write
        for address in sorted(writers_by_address):
            write(address, resolve(address, writers_by_address[address]))

    def _tick_fast(self, tick: int, running: List[Processor]) -> None:
        """One observable tick: every fast-path ``step()`` lands here.

        Builds the full adversary view (from the status caches and the
        fast collection) and then runs the reference failure-handling
        phases, so adversary-visible state and the realized pattern are
        identical to the reference path.  An absent or never-acting
        adversary takes the same route (the reference consults it every
        tick too); only quiet windows skip the view.

        The status caches follow the tick's own transitions: the running
        list drops what settle failed or halted (before the restarts, so
        a pid failed and restarted in one tick comes back once) and
        merges the revived; the failed pids trade the revived for the
        newly failed.  The epoch is bumped before settle and
        ``_cache_epoch`` recorded only after the update, so an error in
        between, or a transition from outside, forces a full rebuild.
        """
        phases = self.phase_counters
        mark = perf_counter() if phases is not None else 0.0
        pending = self._collect_fast(running)
        if phases is not None:
            now = perf_counter()
            phases.collect_s += now - mark
            mark = now
        view = TickView(
            tick, self._reader, None, pending, self.ledger, self.context,
            self._failed_pids, self.num_processors,
        )
        decision = self._consult_adversary(view)
        failures = self._validated_failures(decision, pending)
        failures = self._apply_fairness(failures)
        stalls = self._validated_stalls(decision, pending)
        failures, stalls = self._apply_progress_policy(
            failures, pending, stalls
        )
        if phases is not None:
            now = perf_counter()
            phases.adversary_s += now - mark
            mark = now
        self._commit_pending(pending, failures, stalls)
        if phases is not None:
            now = perf_counter()
            phases.resolve_s += now - mark
            mark = now
        epoch_cell = self._status_epoch
        in_sync = epoch_cell[0] == self._cache_epoch
        epoch_cell[0] += 1
        completed, failed_now, halts = self._settle_fast(
            pending, failures, tick, stalls
        )
        self.ledger.completed_per_tick.append(completed)
        if failed_now or halts:
            running = [proc for proc in running if proc.status is _RUNNING]
        revived = self._apply_restarts(
            decision, failures, pending, tick, self._failed_pids
        )
        if in_sync:
            if revived or failed_now:
                back = [proc for proc in revived if proc.status is _RUNNING]
                if back:
                    running = sorted(running + back, key=_pid_of)
                gone = {proc.pid for proc in revived}
                self._failed_pids = tuple(sorted(
                    pid for pid in self._failed_pids + tuple(failed_now)
                    if pid not in gone
                ))
            self._running_cache = running
            self._cache_epoch = epoch_cell[0]
        if phases is not None:
            phases.settle_s += perf_counter() - mark
            phases.ticks += 1

    def _settle_fast(
        self,
        pending: Mapping[int, PendingCycleView],
        failures: Mapping[int, int],
        tick: int,
        stalls: FrozenSet[int],
    ) -> Tuple[int, List[int], int]:
        """:meth:`_settle_processors` over the array-backed counters.

        Same per-PID order of charges and transitions as the reference
        settle (``pending`` is in ascending PID order); the failures
        reach the pattern as one record, also when a processor raises
        mid-loop.  Interrupt counts are kept only when a fairness
        window reads them.  Returns the completed cycles, the failed
        pids and the number of halts.

        A running kernel processor fails or completes in place: it
        drops its pending cycle and sets its status, or counts the cycle
        and advances its stepper, halting when the program ends, with no
        epoch bump (the tick made one).  Generator processors, and any
        processor not running with a live stepper, keep
        :meth:`Processor.fail` and :meth:`Processor.complete_cycle`.
        """
        ledger = self.ledger
        attempts = ledger.attempted_by_pid.backing_list()
        completions = ledger.completed_by_pid.backing_list()
        processors = self._processors
        interrupts = (
            self._consecutive_interrupts
            if self.fairness_window is not None
            else None
        )
        kernel = self._kernel_mode
        running = ProcessorStatus.RUNNING
        halts = 0
        failed: List[int] = []
        try:
            for pid, entry in pending.items():
                if pid in stalls:
                    continue  # deferred: no charge, no completion, no failure
                attempts[pid] += 1
                processor = processors[pid]
                if pid in failures:
                    if interrupts is not None:
                        interrupts[pid] = interrupts.get(pid, 0) + 1
                    failed.append(pid)
                    if kernel and processor.status is running:
                        processor._pending = None
                        processor.status = ProcessorStatus.FAILED
                    else:
                        processor.fail()
                    continue
                completions[pid] += 1
                if interrupts is not None:
                    interrupts[pid] = 0
                stepper = processor._stepper
                if kernel and processor.status is running and stepper.live:
                    processor.cycles_completed += 1
                    processor._pending = None
                    if not stepper.advance(entry.read_values):
                        processor.status = ProcessorStatus.HALTED
                        halts += 1
                else:
                    processor.complete_cycle(entry.read_values)
                    if processor.status is not running:
                        halts += 1
        finally:
            if failed:
                ledger.pattern.record_many(FailureTag.FAILURE, failed, tick)
        return len(pending) - len(stalls) - len(failed), failed, halts

    # ================================================================== #
    # event-horizon fast-forward (run()-level tick batching)
    # ================================================================== #

    def _flush_quiet_batch(
        self, running: List[Processor], batch_ticks: int
    ) -> None:
        """Charge a batch of fully-quiet ticks to the ledger at once."""
        if batch_ticks:
            self.ledger.charge_quiet_window(
                [processor.pid for processor in running], batch_ticks
            )

    def _quiet_tick_generic(self, running: List[Processor]) -> None:
        """One adversary-free tick of any window the kernel tick cannot run.

        The observable tick minus the adversary: collect every running
        processor's cycle as a plain record (:meth:`_collect_fast`,
        which also enforces EREW read exclusion), resolve and commit the
        writes (:meth:`_commit_pending`, which serves stateful policies
        through the reference-exact route), then advance each processor,
        looked up by PID.  Every cycle completes; the window
        batches the per-PID ledger charges.  Generator programs (froute,
        the trivial assignment's and generational X's task cycles, and
        every program on the ``nokernel`` and ``reference`` lanes) tick
        here; so do kernels under a window the kernel tick cannot run.
        """
        pending = self._collect_fast(running, views=False)
        self._commit_pending(pending, {}, frozenset())
        processors = self._processors
        for pid, entry in pending.items():
            processor = processors[pid]
            values = entry[2]
            generator = processor._generator
            if generator is None:
                # A compiled stepper (a window the kernel tick cannot run).
                processor.complete_cycle(values)
                continue
            # Processor.complete_cycle inlined for generator programs: every
            # guard holds inside a window, and generator solves (V, VX and
            # froute, when all three still ran here) measured 5-11% slower
            # calling the method.
            processor.cycles_completed += 1
            try:
                next_cycle = generator.send(values)
            except StopIteration:
                processor._generator = None
                processor._pending = None
                processor.status = ProcessorStatus.HALTED
                processor._bump_epoch()
                continue
            if next_cycle.__class__ is not Cycle:
                processor._check_cycle(next_cycle)
            processor._pending = next_cycle

    def _quiet_tick_kernel(self, running: List[Processor]) -> None:
        """One adversary-free tick through the compiled-kernel lane.

        One sweep over the running list calls each stepper's
        ``quiet_step``, which reads the raw cells, stages flat
        ``address, value`` pairs, and advances its own state — no
        ``Cycle`` or ``Write`` allocation, no pending views.  Only run
        when the window is fusable (concurrent reads and an identity
        singleton resolve); :meth:`_quiet_tick_generic` serves the
        rest.  Kernels are trusted to respect the cycle read/write
        budgets (the soundness contract in :mod:`repro.pram.compiled`);
        addresses are still bounds-checked during staging.  A task cycle
        (``quiet_step`` returned :data:`TASK_CYCLE`) is user code, so
        the machine interprets it with every generator check
        (:meth:`_quiet_task_cycle`).  A write that repeats an address
        with the same value stays one write when the policy declares
        ``agreeing_resolve_is_identity`` (every V and W tick: all active
        processors write the step cell); a disagreeing write, any repeat
        under other policies, or an exotic address falls back to the
        reference-exact grouping (:meth:`_resolve_and_apply_raw`) for
        the whole tick.  ``ends[i]`` is ``running[i]``'s end offset into
        the staged pairs.
        """
        memory = self.memory
        cells = self._cells
        size = len(cells)
        raw = self._kernel_raw_scratch
        ends = self._kernel_ends_scratch
        staged = self._staged_writes
        raw.clear()
        ends.clear()
        staged.clear()
        reads_charged = 0
        for processor in running:
            stepper = processor._stepper
            try:
                reads = stepper.quiet_step(cells, raw)
            except Exception:
                self._commit_raising_tick(running, ends, raw)
                raise
            if reads == TASK_CYCLE:
                reads = self._quiet_task_cycle(running, processor, ends, raw)
            reads_charged += reads
            processor.cycles_completed += 1
            ends.append(len(raw))
            if not stepper.live:
                # Voluntary halt: the compiled analogue of the generator
                # raising StopIteration in complete_cycle.
                processor.status = ProcessorStatus.HALTED
                processor._bump_epoch()
        memory.charge_reads(reads_charged)
        agreeing = self.policy.agreeing_resolve_is_identity
        clean = True
        for i in range(0, len(raw), 2):
            address = raw[i]
            if address.__class__ is int and 0 <= address < size:
                if address not in staged:
                    staged[address] = raw[i + 1]
                    continue
                if agreeing and staged[address] == raw[i + 1]:
                    continue
            clean = False
            break
        if clean:
            memory.commit_resolved(staged.items())
        else:
            self._resolve_and_apply_raw(
                [processor.pid for processor in running], ends, raw
            )

    def _quiet_task_cycle(
        self,
        running: List[Processor],
        processor: Processor,
        ends: List[int],
        raw: List[int],
    ) -> int:
        """A kernel's task cycle on a fused tick; returns its read charge.

        Task cycles are user code, which a kernel leaves to the machine
        (``quiet_step`` returned :data:`TASK_CYCLE`): the pending cycle
        is interpreted with the generator lanes' checks
        (:meth:`_interpret_task`), its writes are staged, and the stepper
        advances past it.
        """
        stepper = processor._stepper
        values, writes, reads = self._interpret_task(
            processor, stepper.current_cycle()
        )
        for write in writes:
            raw.append(write.address)
            raw.append(write.value)
        try:
            stepper.advance(values)
        except Exception:
            self._commit_raising_tick(running, ends, raw)
            raise
        return reads

    def _commit_raising_tick(
        self, running: List[Processor], ends: List[int], raw: List[int]
    ) -> None:
        """Commit a fused tick whose kernel raised while advancing.

        A kernel advancing into a task's cycles calls the task set,
        which may raise (a factory error, an item that is not a
        ``Cycle``).  The generator lanes raise that on resuming the
        program, after the tick's writes are committed, so the error
        leaves here over the same memory: the raising processor,
        ``running[len(ends)]``, has its writes staged already, the
        processors after it are evaluated without advancing, and the
        whole tick is resolved and applied.
        """
        ends.append(len(raw))
        cells = self._cells
        for processor in running[len(ends):]:
            stepper = processor._stepper
            observed = stepper.observe(cells)
            if observed is None:
                observed = self._interpret_task(
                    processor, stepper.current_cycle()
                )
            for write in observed[1]:
                raw.append(write.address)
                raw.append(write.value)
            ends.append(len(raw))
        self._resolve_and_apply_raw(
            [processor.pid for processor in running], ends, raw
        )

    def _run_quiet_window(
        self, stop_tick: int, until: Optional[UntilPredicate]
    ) -> str:
        """Run ticks up to ``stop_tick`` without consulting the adversary.

        Only called inside a window the adversary promised quiet (or
        with no adversary), so every collected cycle completes:
        the per-tick adversary view, failure phases, and status checks
        collapse, and per-PID ledger charges batch into one flush per
        status generation.  The status epoch is still checked every tick
        (halting is a processor-driven transition), and the ``until``
        goal is still evaluated exactly once per tick, so termination
        and the ledger stay bit-identical to the reference path.

        Returns :data:`_WINDOW_GOAL` when ``until`` fired,
        :data:`_WINDOW_IDLE` when there is nothing to run (no running
        processors — zero ticks consumed, the caller's ``step()``
        handles empty ticks and halting), and :data:`_WINDOW_RAN`
        otherwise (``stop_tick`` reached, or the running set drained
        mid-window).
        """
        policy = self.policy
        fusable = (
            policy.allows_concurrent_reads
            and policy.singleton_resolve_is_identity
        )
        # The vector mirror applies POISON only when it flushes, so a
        # write to a dead cell would stay readable inside the window:
        # memory with static faults keeps to the scalar ticks.
        if fusable and self._vector is not None and not self.memory.has_faults:
            # The vectorized lane batches the whole window, so it needs
            # the goal in machine-readable form (the ``zero_goal``
            # marker of ``done_predicate``) to find the exact tick the
            # predicate flips.  Unmarked predicates take the scalar
            # ticks below.
            goal = None if until is None else getattr(until, "zero_goal", None)
            if until is None or goal is not None:
                if self._prefer_vectorized(stop_tick):
                    return self._run_quiet_window_vectorized(
                        stop_tick, until, goal
                    )
        if self._resident is not None:
            # Scalar window chosen (dispatch, unmarked predicate, or
            # ineligible policy or memory): the scalar ticks read and
            # write memory directly, so the mirror must stand down.
            self._resident.flush()
        self._refresh_status_caches()
        running = self._running_cache
        if not running:
            return _WINDOW_IDLE
        ledger = self.ledger
        reader = self._reader
        epoch_cell = self._status_epoch
        interrupts = self._consecutive_interrupts
        if interrupts:
            # Every running processor completes a cycle each quiet tick,
            # which in the reference path zeroes its consecutive-
            # interrupt count; failed processors keep theirs.
            for processor in running:
                interrupts.pop(processor.pid, None)
        quiet_tick = (
            self._quiet_tick_kernel
            if self._kernel_mode and fusable
            else self._quiet_tick_generic
        )
        # Window ticks are not timed per phase (that would un-batch
        # them); phase counters count them in ``fused_ticks``.
        phases = self.phase_counters
        batch_ticks = 0
        outcome = _WINDOW_RAN
        while True:
            ledger.ticks += 1
            quiet_tick(running)
            batch_ticks += 1
            if epoch_cell[0] != self._cache_epoch:
                # A processor halted this tick: flush the batch against
                # the status generation that actually ran it (halting
                # pids completed this tick too), then recompute.
                self._flush_quiet_batch(running, batch_ticks)
                if phases is not None:
                    phases.fused_ticks += batch_ticks
                batch_ticks = 0
                self._refresh_status_caches()
                running = self._running_cache
            if until is not None and until(reader):
                outcome = _WINDOW_GOAL
                break
            if not running:
                break
            if ledger.ticks >= stop_tick:
                break
        self._flush_quiet_batch(running, batch_ticks)
        if phases is not None:
            phases.fused_ticks += batch_ticks
        self._sync_traffic()
        return outcome

    def _run_quiet_window_vectorized(
        self,
        stop_tick: int,
        until: Optional[UntilPredicate],
        goal: Optional[Tuple[int, int]],
    ) -> str:
        """Run a fused quiet window as batched vector-lane bursts.

        The vectorized analogue of the fused loop in
        :meth:`_run_quiet_window`: the vector program advances every
        running lane as array operations, in bursts that stop exactly on
        the first tick a lane halts or the ``goal`` region empties, so
        ticks, per-PID charges, statuses, and the goal tick are
        bit-identical to the per-processor loop.

        The window is *resident*: it outlives this call, so the next
        quiet window reuses the memory mirror and any still-packed
        lanes at zero boundary cost.  Traffic is charged at every
        window boundary (so the ledger is exact whenever control
        leaves), but cells and kernel state are written back lazily —
        by the ``flush()`` the machine issues before any outside
        observation, or here on error so policy failures leave
        reference-equal state.
        """
        self._refresh_status_caches()
        running = self._running_cache
        if not running:
            return _WINDOW_IDLE
        ledger = self.ledger
        interrupts = self._consecutive_interrupts
        if interrupts:
            # Same rule as the per-tick window: every running processor
            # completes a cycle each quiet tick, zeroing its
            # consecutive-interrupt count; failed processors keep theirs.
            for processor in running:
                interrupts.pop(processor.pid, None)
        phases = self.phase_counters
        vector = self._vector
        window = self._resident
        if window is None:
            window = vector.begin_window(self.memory, self.policy, goal)
            self._resident = window
        else:
            window.resume(goal)
        outcome = _WINDOW_RAN
        try:
            while True:
                budget = stop_tick - ledger.ticks
                if budget <= 0:
                    break
                if until is not None and window.goal_reached:
                    # Goal already true at the burst boundary: the
                    # per-tick loop would still run exactly one more
                    # tick before observing it.
                    budget = 1
                pids = [processor.pid for processor in running]
                burst = vector.run_quiet(window, pids, budget)
                ticks = burst.ticks
                ledger.ticks += ticks
                self._flush_quiet_batch(running, ticks)
                if phases is not None:
                    phases.fused_ticks += ticks
                for processor in running:
                    processor.cycles_completed += ticks
                if burst.halted:
                    by_pid = {processor.pid: processor for processor in running}
                    for pid in burst.halted:
                        halting = by_pid[pid]
                        halting.status = ProcessorStatus.HALTED
                        halting._bump_epoch()
                    self._refresh_status_caches()
                    running = self._running_cache
                if until is not None and window.goal_reached:
                    outcome = _WINDOW_GOAL
                    break
                if not running:
                    break
        except BaseException:
            # A policy error mid-burst: charge what ran and write back
            # so the caller sees the same partially-applied state the
            # reference path would leave.
            window.charge_traffic()
            window.flush()
            raise
        window.charge_traffic()
        self._sync_traffic()
        return outcome

    def _prefer_vectorized(self, stop_tick: int) -> bool:
        """Adaptive dispatch: is the vector lane worth it for this window?

        Consults the calibrated cost model (:mod:`repro.pram.dispatch`)
        with the window's tick budget, the running-lane count, the
        vector program's kind, and whether the resident window's packed
        state is still warm.  Either answer is bit-identical; this only
        picks the faster lane.
        """
        model = self._dispatch
        if model is None:
            from repro.pram.dispatch import get_model

            model = self._dispatch = get_model()
        self._refresh_status_caches()
        window = self._resident
        return model.prefer_vector(
            kind=self._vector.kind,
            ticks=max(1, stop_tick - self.ledger.ticks),
            p=len(self._running_cache),
            cells=len(self._cells),
            mirror=window is not None,
            packed=window is not None and not window.suspended,
        )

    # ------------------------------------------------------------------ #
    # whole runs
    # ------------------------------------------------------------------ #

    def run(
        self,
        until: Optional[UntilPredicate] = None,
        max_ticks: int = 1_000_000,
        raise_on_limit: bool = True,
        stall_limit: int = 1024,
    ) -> RunLedger:
        """Tick until ``until`` holds, all processors halt, or limits hit.

        ``until`` is evaluated exactly once before the first tick and
        once after every tick (Write-All's predicate is O(1) thanks to
        the memory layer's zero-region tracker, but arbitrary predicates
        may be expensive — they are never called twice per tick, not
        even at the ``max_ticks`` boundary).

        ``stall_limit`` bounds consecutive ticks in which no update cycle
        was even attempted (all processors failed, adversary silent) —
        only reachable with ``enforce_progress=False``.

        With ``fast_path`` and ``fast_forward`` both set (the default),
        ticks inside an adversary-promised quiescent window (see
        ``Adversary.quiet_until``) run through a batched inner loop that
        skips the per-tick adversary machinery entirely; everything
        observable — the ledger, the realized pattern, traces, memory —
        is identical to per-tick execution, which is a differential-test
        surface (``tests/pram/test_fast_path_differential.py``).
        """
        ledger = self.ledger
        reader = self._reader
        if self._resident is not None:
            # A resident window from an earlier run() on this machine:
            # the entry `until` check (and anything else this run
            # observes before the first vectorized window) must see
            # authoritative memory.
            self._resident.flush()
        if until is not None and until(reader):
            ledger.goal_reached = True
            self._sync_traffic()
            return ledger
        fast_forward = (
            self.fast_path and self.fast_forward and bool(self._processors)
        )
        stalled_ticks = 0
        while True:
            if fast_forward:
                stop_tick = min(self._event_horizon() - 1, max_ticks)
                if stop_tick > ledger.ticks:
                    outcome = self._run_quiet_window(stop_tick, until)
                    if outcome == _WINDOW_GOAL:
                        ledger.goal_reached = True
                        break
                    if outcome == _WINDOW_RAN:
                        # Every window tick completed cycles, so the
                        # stall counter resets; `until` was already
                        # checked once after each tick.
                        stalled_ticks = 0
                        if ledger.ticks >= max_ticks:
                            ledger.tick_limited = True
                            if raise_on_limit:
                                if self._resident is not None:
                                    self._resident.flush()
                                raise TickLimitError(
                                    f"run exceeded max_ticks={max_ticks} "
                                    f"(S={ledger.completed_work})"
                                )
                            break
                        continue
                    # _WINDOW_IDLE: nothing is running — fall through to
                    # step(), which owns empty ticks, forced restarts,
                    # and halt detection.
            live = self.step()
            if not live:
                ledger.halted = True
                break
            if ledger.completed_per_tick and ledger.completed_per_tick[-1] == 0 and not any(
                proc.is_running for proc in self._processors
            ):
                stalled_ticks += 1
                if stalled_ticks >= stall_limit:
                    ledger.stalled = True
                    break
            else:
                stalled_ticks = 0
            if until is not None and until(reader):
                ledger.goal_reached = True
                break
            if ledger.ticks >= max_ticks:
                ledger.tick_limited = True
                if raise_on_limit:
                    raise TickLimitError(
                        f"run exceeded max_ticks={max_ticks} "
                        f"(S={ledger.completed_work})"
                    )
                break
        if self._resident is not None:
            # Run over: callers inspect memory (σ, snapshots, asserts)
            # the moment this returns.
            self._resident.flush()
        self._sync_traffic()
        return ledger
