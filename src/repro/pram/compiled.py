"""Compiled program kernels: cycle streams without generator dispatch.

A processor *program* is normally a Python generator yielding
:class:`~repro.pram.cycles.Cycle` objects.  That representation is the
executable specification — every cycle is a fresh record, every tick
resumes one generator frame per running processor.  After the fast path
(allocation-lean ticks) and event horizons (batched quiescent windows),
that generator dispatch is the last big constant factor on the inner
loop of large sweeps.

A :class:`CompiledProgram` is the compiled form of the same program: a
per-PID stepper object with *explicit* state that

* is rebuilt from the PID alone on every (re)start — matching the
  paper's fail-stop semantics, where a restarted processor comes back
  "at its initial state with its PID as its only knowledge";
* can emit read addresses and staged writes directly into the machine's
  scratch buffers (:meth:`CompiledProgram.quiet_step`), with no
  generator resume and no ``Cycle``/``Write`` allocation;
* can still materialize a bona-fide :class:`Cycle` for any tick the
  adversary (or a tracer) needs to observe
  (:meth:`CompiledProgram.current_cycle`), so traces, pending views, and
  the realized failure pattern are identical to the generator path.

**Soundness contract for kernel authors.**  A kernel must be
*observationally identical* to the generator program it compiles:

* ``current_cycle()`` must return a cycle with the same label, the same
  read specs (same addresses, in the same order, with the same
  ``None``-skip shape), and writes that materialize to the same
  ``(address, value)`` sequence the generator's cycle would produce for
  any read-value tuple;
* ``quiet_step()`` must charge exactly as many reads as the generator
  cycle performs (``None`` read specs charge nothing), append only
  in-range integer ``(address, value)`` pairs in the cycle's write
  order, and advance the state exactly as ``advance()`` would with the
  values it just read;
* ``observe()`` must return exactly the read values, write set and read
  charge that evaluating ``current_cycle()`` against the same cells
  yields, and must not touch the state (the adversary may stall the
  processor, which then re-observes the same cycle next tick);
* state transitions may depend only on the PID, the layout constants
  captured at construction, and the values read — never on wall-clock,
  randomness that is not PID-derived, or machine internals;
* ``reset()`` must restore the exact initial state (a restarted
  processor must be indistinguishable from a freshly spawned one).

**Task cycles.**  A Write-All task set's cycles are user code (the
Theorem 4.1 simulator's phases run them), so a kernel never evaluates
them itself.  While one is pending, ``current_cycle()`` returns it as
the generator would yield it, ``quiet_step()`` returns
:data:`TASK_CYCLE` having staged nothing and advanced nothing, and
``observe()`` returns ``None``.  The machine then interprets the cycle
with the checks it applies to every generator cycle (the label
validation gate, the read and write budgets, bounds-checked reads) and
calls ``advance()`` with the values read.  A kernel fetches a task's
cycles, and checks each is a :class:`Cycle`, when it advances into
them, as the generator does on resuming; the machine commits the
tick's writes before such an error propagates from a fused quiet tick,
so every lane raises it on the same tick over the same memory.

The differential suite runs every algorithm × adversary combination
with kernels on, off, and against the reference core and asserts
ledger, trace, and memory equality — that suite is the contract's
enforcement.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.pram.cycles import Cycle, Write
from repro.util.hooks import trusted_hook

#: A compiled-program factory: called with the PID, returns the per-PID
#: stepper.  The machine calls ``reset()`` before first use.
CompiledFactory = Callable[[int], "CompiledProgram"]

#: What ``quiet_step`` returns, in place of a read count, when the
#: pending cycle is a task cycle for the machine to interpret (see the
#: module docstring).
TASK_CYCLE = -1


class CompiledProgram:
    """Base class / protocol for compiled per-PID program steppers.

    Subclasses hold the program state explicitly (plain attributes), so
    the machine can advance them without resuming a generator frame.
    The machine drives a stepper through exactly one of two lanes per
    tick:

    * the **fused quiet lane** calls :meth:`quiet_step` once per tick —
      read, compute, stage writes, advance, all in one call;
    * the **observable lane** (adversary ticks, tracing, the reference
      core) calls :meth:`current_cycle` to materialize the pending
      cycle for the adversary's view, :meth:`observe` to evaluate its
      reads and writes (the fast path; the reference core interprets
      the materialized cycle instead), and after the machine resolves
      the tick, :meth:`advance` with the values that were read.

    ``live`` is ``True`` from a successful :meth:`reset` until the
    program halts voluntarily (``advance``/``quiet_step`` observed the
    halt condition).  A failed processor's stepper keeps whatever state
    it had — the state is conceptually lost, and :meth:`reset` rebuilds
    it from the PID on restart.
    """

    __slots__ = ("live",)

    def reset(self) -> bool:
        """(Re)build the initial state from the PID alone.

        Returns ``False`` when the program halts immediately (the
        generator analogue: the first ``next()`` raises
        ``StopIteration``), ``True`` otherwise.  Must set ``live``
        accordingly.
        """
        raise NotImplementedError

    def current_cycle(self) -> Cycle:
        """Materialize the pending cycle for adversary-visible ticks.

        Pure: must not mutate the stepper state.  The returned cycle
        must be observationally identical to the one the generator
        program would currently have pending.
        """
        raise NotImplementedError

    def observe(
        self, cells: Sequence[int]
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[Write, ...], int]]:
        """Evaluate the pending cycle against ``cells`` without advancing.

        Returns ``(read values, writes, reads charged)`` — what the
        machine would get by interpreting :meth:`current_cycle`'s read
        specs and write function against the same cells, which is
        exactly what this default does.  Kernels override it with a
        straight-line evaluation so adversary-visible ticks skip the
        per-read closure calls, and return ``None`` for a task cycle,
        which the machine interprets.  Pure: the state must not change.
        """
        cycle = self.current_cycle()
        value_list: List[int] = []
        reads = 0
        for spec in cycle.read_specs():
            address = spec(tuple(value_list)) if callable(spec) else spec
            if address is None:
                value_list.append(0)
            else:
                value_list.append(cells[address])
                reads += 1
        values = tuple(value_list)
        return values, cycle.materialize_writes(values), reads

    def advance(self, values: Tuple[int, ...]) -> bool:
        """Complete the pending cycle with the values that were read.

        Returns ``False`` when the program halts voluntarily (the
        generator analogue: ``send()`` raises ``StopIteration``), and
        must keep ``live`` in sync.
        """
        raise NotImplementedError

    def quiet_step(self, cells: Sequence[int], out: List[int]) -> int:
        """One fused read→compute→stage→advance step (quiet ticks only).

        ``cells`` is the raw memory cell array (read-only by contract);
        staged writes are appended to ``out`` as flat
        ``address, value`` pairs in cycle write order.  Returns the
        number of reads to charge, or :data:`TASK_CYCLE` (nothing
        staged, nothing advanced) for a task cycle.  Must update
        ``live`` exactly as :meth:`advance` would.
        """
        raise NotImplementedError


def resolve_kernel(
    algorithm: object, layout: object, tasks: object, compiled: bool = True
) -> Optional[CompiledFactory]:
    """The kernel factory to install for a run, or None for generators.

    Combines the opt-out switch (``compiled=False`` — the
    ``nokernel`` lane), the trust rule for promise hooks (a kernel is
    a promise about ``program()``, so it is only installed when
    declared by the class that defines the effective ``program()`` or
    a subclass of it; see :func:`repro.util.hooks.trusted_hook`), and
    the algorithm's own gating (``compiled_program`` returns None for
    configurations it has no kernel for, e.g. the trivial
    assignment's non-trivial task sets).
    """
    if not compiled:
        return None
    hook = trusted_hook(algorithm, "compiled_program", "program")
    if hook is None:
        return None
    return hook(layout, tasks)
