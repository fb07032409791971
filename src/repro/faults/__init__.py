"""Failure patterns and the paper's adversaries.

The adversaries here realize every failure strategy the paper uses:

* :class:`NoFailures` — the failure-free PRAM;
* :class:`ScheduledAdversary` — off-line (pre-specified) patterns;
* :class:`RandomAdversary` — i.i.d. on-line failures/restarts;
* :class:`BurstAdversary` — periodic mass failures;
* :class:`ThrashingAdversary` — Example 2.2's quadratic-S' strategy;
* :class:`HalvingAdversary` — Theorem 3.1's Omega(N log N) pigeonhole
  strategy;
* :class:`StalkingAdversaryX` — Theorem 4.8's post-order stalker that
  drives algorithm X to ~N^{log 3} work;
* :class:`AccStalker` — Section 5's stalker against randomized ACC;
* wrappers: :class:`NoRestartAdversary` (the [KS 89] fail-stop model),
  :class:`FailureBudgetAdversary` (caps |F| at M), and
  :class:`PhaseSwitchAdversary` / :class:`UnionAdversary` composition.

Beyond KS91, the package opens three related fault models (see
:mod:`repro.faults.registry` for the unified name/model-tag catalog):

* :class:`StaticFaultAdversary` — Chlebus–Gasieniec–Pelc static
  processor/memory faults (dead forever, dead cells poisoned);
* :class:`SpeedClassAdversary` — Zavou & Fernández Anta heterogeneous
  speeds via the machine's stall channel;
* the persistent-memory axis lives in
  :class:`repro.simulation.persistent.CheckpointPolicy` (Blelloch et
  al.'s Parallel Persistent Memory model), driven by the registry's
  ``random`` entry.
"""

from repro.faults.base import (
    QUIET_FOREVER,
    Adversary,
    ScheduledAdversary,
    quiet_horizon,
)
from repro.faults.budget import FailureBudgetAdversary, NoRestartAdversary
from repro.faults.compose import PhaseSwitchAdversary, UnionAdversary
from repro.faults.halving import HalvingAdversary
from repro.faults.random_adversary import BurstAdversary, RandomAdversary
from repro.faults.replay import RecordingAdversary
from repro.faults.simple import NoFailures, SinglePidKiller
from repro.faults.speed import SpeedClassAdversary
from repro.faults.stalking import AccStalker, StalkingAdversaryX
from repro.faults.starver import IterationStarver
from repro.faults.static import StaticFaultAdversary, apply_memory_faults
from repro.faults.targeted import AdaptiveLoadAdversary, CellGuardAdversary
from repro.faults.thrashing import ThrashingAdversary

__all__ = [
    "AccStalker",
    "AdaptiveLoadAdversary",
    "Adversary",
    "BurstAdversary",
    "CellGuardAdversary",
    "FailureBudgetAdversary",
    "HalvingAdversary",
    "IterationStarver",
    "NoFailures",
    "NoRestartAdversary",
    "PhaseSwitchAdversary",
    "QUIET_FOREVER",
    "RandomAdversary",
    "RecordingAdversary",
    "ScheduledAdversary",
    "SinglePidKiller",
    "SpeedClassAdversary",
    "StalkingAdversaryX",
    "StaticFaultAdversary",
    "ThrashingAdversary",
    "UnionAdversary",
    "apply_memory_faults",
    "quiet_horizon",
]
