"""Processor lifecycle: running, failed, restarted, halted.

A restartable fail-stop processor (Section 2.1):

* runs a synchronous program, one update cycle per clock tick;
* may be failed by the adversary at any point of a cycle — its private
  memory (here: the program generator's local state) is lost;
* may later be restarted *"at their initial state with their PID as their
  only knowledge"* — here: a fresh generator built from the same program
  factory;
* halts voluntarily when its program returns (e.g. algorithm X exits once
  its pointer leaves the progress-tree root).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.pram.cycles import Cycle, expect_cycle
from repro.pram.errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.pram.compiled import CompiledFactory, CompiledProgram

#: A processor program: called with the PID, returns a generator that
#: yields :class:`Cycle` objects and receives read-value tuples.
ProgramFactory = Callable[[int], Generator[Cycle, tuple, None]]


class ProcessorStatus(Enum):
    RUNNING = "running"
    FAILED = "failed"
    HALTED = "halted"


class Processor:
    """State of one fail-stop processor inside the machine."""

    def __init__(
        self,
        pid: int,
        program_factory: ProgramFactory,
        compiled_factory: Optional["CompiledFactory"] = None,
    ) -> None:
        self.pid = pid
        self._program_factory = program_factory
        # Optional compiled kernel (see repro.pram.compiled).  When set,
        # the processor never builds a generator: spawn()/restart()
        # reset the stepper from the PID, adversary-visible ticks
        # materialize the pending Cycle on demand, and quiet windows
        # advance the stepper directly.
        self._compiled_factory = compiled_factory
        self._stepper: Optional["CompiledProgram"] = None
        self.status = ProcessorStatus.FAILED  # becomes RUNNING on spawn()
        self._generator: Optional[Generator[Cycle, tuple, None]] = None
        self._pending: Optional[Cycle] = None
        self.cycles_completed = 0
        self.restart_count = 0
        # Shared status-epoch cell (a one-element list), installed by the
        # owning machine.  Every transition through these methods bumps
        # it, which is how the machine knows its cached running list and
        # failed pids are stale — including transitions driven directly
        # by tests.  (The observable tick moves kernel processors in
        # place and follows those transitions itself.)
        self._epoch_cell: Optional[list] = None

    def bind_epoch_cell(self, cell: list) -> None:
        """Install the owner's status-epoch cell (see Machine)."""
        self._epoch_cell = cell

    def _bump_epoch(self) -> None:
        cell = self._epoch_cell
        if cell is not None:
            cell[0] += 1

    # ------------------------------------------------------------------ #
    # lifecycle transitions
    # ------------------------------------------------------------------ #

    def spawn(self) -> None:
        """Start (or restart) the program from its initial state."""
        factory = self._compiled_factory
        if factory is not None:
            stepper = self._stepper
            if stepper is None:
                stepper = factory(self.pid)
                self._stepper = stepper
            self._generator = None
            self._pending = None
            # reset() rebuilds the state from the PID alone (a restart
            # knows nothing else); False is the compiled analogue of the
            # first next() raising StopIteration.
            if stepper.reset():
                self.status = ProcessorStatus.RUNNING
            else:
                self.status = ProcessorStatus.HALTED
            self._bump_epoch()
            return
        generator = self._program_factory(self.pid)
        try:
            first_cycle = next(generator)
        except StopIteration:
            # A program may legitimately do nothing (already-halted PID).
            self.status = ProcessorStatus.HALTED
            self._generator = None
            self._pending = None
            self._bump_epoch()
            return
        self._check_cycle(first_cycle)
        self._generator = generator
        self._pending = first_cycle
        self.status = ProcessorStatus.RUNNING
        self._bump_epoch()

    def fail(self) -> None:
        """Stop the processor; private memory (generator state) is lost."""
        if self.status is not ProcessorStatus.RUNNING:
            raise ProgramError(
                f"pid {self.pid}: cannot fail a {self.status.value} processor"
            )
        if self._generator is not None:
            self._generator.close()
        self._generator = None
        self._pending = None
        self.status = ProcessorStatus.FAILED
        self._bump_epoch()

    def restart(self) -> None:
        """Revive a failed processor at its initial state (PID-only)."""
        if self.status is not ProcessorStatus.FAILED:
            raise ProgramError(
                f"pid {self.pid}: cannot restart a {self.status.value} processor"
            )
        self.restart_count += 1
        self.spawn()

    # ------------------------------------------------------------------ #
    # cycle execution
    # ------------------------------------------------------------------ #

    @property
    def pending_cycle(self) -> Cycle:
        """The update cycle the processor executes on the current tick."""
        pending = self._pending
        if self.status is ProcessorStatus.RUNNING and pending is not None:
            return pending
        return self.materialize_pending()

    def materialize_pending(self) -> Cycle:
        """Materialize (and cache) the pending cycle of a compiled program.

        Generator programs always carry their pending cycle; compiled
        steppers build it lazily, only for ticks something actually
        observes (an active adversary, a tracer, the reference core).
        Raises the standard :class:`ProgramError` when there is nothing
        pending — explicitly, not via a side-effect attribute access.
        """
        if self.status is ProcessorStatus.RUNNING:
            pending = self._pending
            if pending is not None:
                return pending
            stepper = self._stepper
            if stepper is not None and stepper.live:
                pending = stepper.current_cycle()
                self._check_cycle(pending)
                self._pending = pending
                return pending
        raise ProgramError(f"pid {self.pid}: no pending cycle")

    def complete_cycle(self, read_values: tuple) -> None:
        """Advance past a completed cycle; fetch the next one.

        The read values are delivered into the program (they are the only
        information a cycle brings into private memory).  If the program
        returns, the processor halts.
        """
        if self.status is not ProcessorStatus.RUNNING:
            raise ProgramError(f"pid {self.pid}: no running program to advance")
        generator = self._generator
        if generator is None:
            stepper = self._stepper
            if stepper is None or not stepper.live:
                raise ProgramError(
                    f"pid {self.pid}: no running program to advance"
                )
            self.cycles_completed += 1
            self._pending = None
            if not stepper.advance(read_values):
                self.status = ProcessorStatus.HALTED
                self._bump_epoch()
            return
        self.cycles_completed += 1
        try:
            next_cycle = generator.send(read_values)
        except StopIteration:
            self._generator = None
            self._pending = None
            self.status = ProcessorStatus.HALTED
            self._bump_epoch()
            return
        self._check_cycle(next_cycle)
        self._pending = next_cycle

    def _check_cycle(self, cycle: object) -> None:
        expect_cycle(self.pid, cycle)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def is_running(self) -> bool:
        return self.status is ProcessorStatus.RUNNING

    @property
    def is_failed(self) -> bool:
        return self.status is ProcessorStatus.FAILED

    @property
    def is_halted(self) -> bool:
        return self.status is ProcessorStatus.HALTED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Processor(pid={self.pid}, status={self.status.value}, "
            f"completed={self.cycles_completed}, restarts={self.restart_count})"
        )
