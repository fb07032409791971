"""The single registry of machine execution lanes.

A *lane* is one configuration of the machine's optimization switches:

========== ========== ============= ========== ============
name       fast_path  fast_forward  compiled   vectorized
========== ========== ============= ========== ============
fast       yes        yes           yes        no
noff       yes        no            yes        no   (no fast-forward)
nokernel   yes        yes           no         no   (no compiled kernels)
vec        yes        yes           yes        yes  (needs numpy)
auto       yes        yes           yes        auto (adaptive dispatch)
reference  no         no            no         no
========== ========== ============= ========== ============

Every optimization is a claim of observational equivalence to the
reference core, so every consumer that enumerates lanes — the
differential suite in ``tests/pram/``, the fuzz driver
(``repro.fuzz.driver``), and the perf harness legs (``repro.perf``) —
derives them from this registry.  Above ``solve_write_all`` a lane is
only ever a registry name: sweep specs, point specs, cache keys and
perf legs carry the name, and :meth:`Lane.solver_kwargs` is the one
place it turns back into switches.  Adding a lane is one registration
here, and it is immediately fuzzed, differentially tested, and
benchmarkable.

The CLI exposes three lanes through ``--lane`` (:data:`CLI_LANES`);
``noff``, ``nokernel`` and ``reference`` are ablations that ``repro
perf`` times beside the chosen lane.

The ``vec`` lane needs the optional numpy extra;
:func:`lane_available` / :func:`available_lane_names` let consumers
skip it cleanly (never crash) when numpy is absent.  The ``auto``
lane (``--lane auto``) runs everywhere: with numpy it consults the
calibrated cost model in :mod:`repro.pram.dispatch` per fused quiet
window, without numpy it silently degrades to the scalar compiled
lane (its ``vectorized`` switch is the string ``"auto"`` rather than
a bool, which :func:`repro.pram.vectorized.resolve_vectorized`
understands as "soft opt-in").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union


@dataclass(frozen=True)
class Lane:
    """One machine lane: a name plus the solver/Machine switches.

    ``vectorized`` is tri-state: ``False`` (scalar), ``True`` (the
    hard ``--lane vec`` opt-in, loud error without numpy) or
    ``"auto"`` (adaptive dispatch, silent scalar degrade without
    numpy).
    """

    name: str
    fast_path: bool
    fast_forward: bool
    compiled: bool
    vectorized: Union[bool, str] = False
    #: Lanes that need the optional numpy extra are skipped (not failed)
    #: by consumers when it is absent.
    requires_numpy: bool = False
    description: str = ""

    def solver_kwargs(self) -> Dict[str, Union[bool, str]]:
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
            description="all optimizations on (the default production lane)",
        ),
        Lane(
            name="noff",
            fast_path=True,
            fast_forward=False,
            compiled=True,
            description="fast path without event-horizon batching",
        ),
        Lane(
            name="nokernel",
            fast_path=True,
            fast_forward=True,
            compiled=False,
            description="fast path without compiled kernels",
        ),
        Lane(
            name="vec",
            fast_path=True,
            fast_forward=True,
            compiled=True,
            vectorized=True,
            requires_numpy=True,
            description="vectorized quiet windows (--lane vec; "
            "needs the numpy extra)",
        ),
        Lane(
            name="auto",
            fast_path=True,
            fast_forward=True,
            compiled=True,
            vectorized="auto",
            description="adaptive per-window vec/scalar dispatch "
            "(--lane auto; scalar without numpy)",
        ),
        Lane(
            name="reference",
            fast_path=False,
            fast_forward=False,
            compiled=False,
            description="the executable specification (no optimizations)",
        ),
    )
}


#: ``--lane`` choice -> registry lane name.
CLI_LANES: Dict[str, str] = {"scalar": "fast", "vec": "vec", "auto": "auto"}


def lane_available(name: str) -> bool:
    """Whether ``name``'s lane can run in this environment."""
    lane = LANES[name]
    if not lane.requires_numpy:
        return True
    from repro.pram.vectorized import HAVE_NUMPY

    return HAVE_NUMPY


def available_lane_names() -> List[str]:
    """Registry-ordered lane names runnable in this environment."""
    return [name for name in LANES if lane_available(name)]
