"""Fault-aware Write-All: route the certificate around dead cells.

Under the CGP static-memory-fault model (see
:mod:`repro.faults.static`) a dead shared cell drops writes and returns
the :data:`~repro.pram.memory.POISON` sentinel on reads.  Any algorithm
whose completion certificate *is* the Write-All array can then be
fooled twice over: a dead ``x`` cell can never be written (so honest
termination checks spin forever), yet its poison value is non-zero (so
visited-style checks declare victory over an unwritten cell).

:class:`FaultRouting` keeps its certificate out of harm's way: an
acknowledgement array ``ack`` in safe memory (CGP let control
structures live in the fault-free region — only the data array is
exposed) records, per element, that the element has been *handled*.
Handling element ``e`` means

1. probe ``ack[e]`` and ``x[e]`` in one cycle — if acked, skip; if
   ``x[e]`` already reads 1, another processor wrote it;
2. otherwise write ``x[e] = 1`` and read it back;
3. if the read-back is 1 the write stuck (live cell) — acknowledge; if
   not, the cell is dead — acknowledge anyway, *routing the certificate
   around* the dead cell instead of retrying a write that can never
   land.

The machine's termination predicate watches the ``ack`` region (via the
:meth:`~repro.core.base.WriteAllAlgorithm.until_predicate` hook), so a
run completes exactly when every element is handled; the harness oracle
(:func:`repro.core.problem.verify_solution` with the faulty set
skipped) then confirms every *live* cell holds 1.

Processors sweep the whole array from pid-rotated start positions (the
single-sweep half of [KS 89]'s contending-processors idea), so the
algorithm also tolerates arbitrary fail/restart patterns: the ack array
is the shared checkpoint a restarted processor recovers from.

That recovery has a price.  A restarted processor begins its sweep
again at ``pid * N/P`` and re-probes, one cycle per element, the
acknowledged prefix of its own segment before it can make progress.
Under crash failures (no restarts) nobody re-walks a prefix and the
completed work stays about ``4N``.  Under i.i.d. churn with per-tick
failure probability ``f``, a processor must survive ``L`` ticks to get
past a prefix of length ``L``, so finishing a segment costs on the
order of ``(1 - f) ** -(N/P) / f**2`` probe cycles: the work grows
exponentially in ``N/P``.  At P = 64 under the registry's ``random``
entry (f = 0.1), S goes from about 158k at N = 2048 to 4.8M at
N = 4096 (``0.9 ** -32`` is 29), with re-probes 99.6% of it; the
S-versus-N table is in ``docs/ADVERSARIES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.core.base import (
    BaseLayout,
    WriteAllAlgorithm,
    default_tasks,
    done_predicate,
)
from repro.core.tasks import TaskSet
from repro.pram.cycles import Cycle, Write
from repro.pram.memory import MemoryReader


@dataclass(frozen=True)
class FaultRoutingLayout(BaseLayout):
    """``x`` at ``[x_base, n)``; the ack certificate right after it."""

    ack_base: int = 0


class FaultRouting(WriteAllAlgorithm):
    """Single-sweep Write-All with read-back dead-cell detection."""

    name = "froute"

    def build_layout(self, n: int, p: int) -> FaultRoutingLayout:
        return FaultRoutingLayout(
            n=n, p=p, x_base=0, size=2 * n, ack_base=n
        )

    def program(
        self, layout: FaultRoutingLayout, tasks: Optional[TaskSet] = None
    ) -> Callable[[int], Generator[Cycle, tuple, None]]:
        tasks = default_tasks(tasks)
        n = layout.n
        x_base = layout.x_base
        ack_base = layout.ack_base
        stride = max(1, n // layout.p)

        def factory(pid: int) -> Generator[Cycle, tuple, None]:
            start = (pid * stride) % n

            def run() -> Generator[Cycle, tuple, None]:
                while True:
                    all_acked = True
                    for offset in range(n):
                        element = start + offset
                        if element >= n:
                            element -= n
                        ack_addr = ack_base + element
                        x_addr = x_base + element
                        values = yield Cycle(
                            reads=(ack_addr, x_addr), label="froute:probe"
                        )
                        if values[0] != 0:
                            continue
                        all_acked = False
                        x_val = values[1]
                        if x_val == 0:
                            for task_cycle in tasks.task_cycles(element, pid):
                                yield task_cycle
                            yield Cycle(
                                writes=(Write(x_addr, 1),),
                                label="froute:write",
                            )
                            values = yield Cycle(
                                reads=(x_addr,), label="froute:verify"
                            )
                            x_val = values[0]
                        # x_val == 1: the write stuck (or a peer's did).
                        # Anything else is the poison of a dead cell —
                        # acknowledge anyway and route around it.
                        yield Cycle(
                            writes=(Write(ack_addr, 1),),
                            label="froute:ack" if x_val == 1
                            else "froute:route",
                        )
                    if all_acked:
                        return

            return run()

        return factory

    def until_predicate(
        self, layout: FaultRoutingLayout
    ) -> Callable[[MemoryReader], bool]:
        return done_predicate(layout, region=(layout.ack_base, layout.n))
