"""The single registry of machine execution lanes.

A *lane* is one configuration of the machine's optimization switches:

========== ========== ============= ========== ============
name       fast_path  fast_forward  compiled   vectorized
========== ========== ============= ========== ============
fast       yes        yes           yes        no
noff       yes        no            yes        no   (no fast-forward)
nokernel   yes        yes           no         no   (no compiled kernels)
auto       yes        yes           yes        yes  (adaptive dispatch)
reference  no         no            no         no
========== ========== ============= ========== ============

Every optimization is a claim of observational equivalence to the
reference core, so every consumer that enumerates lanes — the
differential suite in ``tests/pram/``, the fuzz driver
(``repro.fuzz.driver``) and the bench registry's lane matrix
(``A9_lane_matrix`` in ``repro.experiments.bench``, whose claims gate
each lane's model fields against the ``fast`` lane's on its
configurations) — derives them from this registry.  Above
``solve_write_all`` a lane is only ever a registry name: sweep specs,
point specs and cache keys carry the name, and
:meth:`Lane.solver_kwargs` is the one place it turns back into
switches.  Adding a lane is one registration here, and it is
immediately fuzzed, differentially tested, and benchmarkable.

The CLI's ``solve``, ``sweep``, ``simulate`` and ``trace`` run the
``auto`` lane; ``fast``, ``noff``, ``nokernel`` and ``reference`` are
what the tests, the fuzz driver and the registry scenarios compare it
against.  ``auto`` runs everywhere: with numpy the calibrated cost
model in :mod:`repro.pram.dispatch` picks the vector or the scalar body
per fused quiet window, without numpy every window runs scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Lane:
    """One machine lane: a name plus the solver/Machine switches.

    ``vectorized=True`` installs the algorithm's vector program, if it
    ships one, and lets dispatch choose per window.
    """

    name: str
    fast_path: bool
    fast_forward: bool
    compiled: bool
    vectorized: bool = False

    def solver_kwargs(self) -> Dict[str, bool]:
        """Keyword arguments for ``solve_write_all`` / ``RobustSimulator``."""
        return {
            "fast_path": self.fast_path,
            "fast_forward": self.fast_forward,
            "compiled": self.compiled,
            "vectorized": self.vectorized,
        }


#: Ordered lane registry.  The reference lane is last on purpose: the
#: differential harness compares every lane against the final entry.
LANES: Dict[str, Lane] = {
    lane.name: lane
    for lane in (
        Lane(
            name="fast",
            fast_path=True,
            fast_forward=True,
            compiled=True,
        ),
        Lane(
            name="noff",
            fast_path=True,
            fast_forward=False,
            compiled=True,
        ),
        Lane(
            name="nokernel",
            fast_path=True,
            fast_forward=True,
            compiled=False,
        ),
        Lane(
            name="auto",
            fast_path=True,
            fast_forward=True,
            compiled=True,
            vectorized=True,
        ),
        Lane(
            name="reference",
            fast_path=False,
            fast_forward=False,
            compiled=False,
        ),
    )
}
