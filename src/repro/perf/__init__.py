"""Measurement hooks for the simulator core and the model gate.

The paper's measures (S, S', sigma) are model-level and host-independent;
wall time only measures the simulator, and the end-to-end benchmark
(``benchmarks/e2e``) is where it is timed.  This package holds what that
benchmark and CI's model gate read:

* :mod:`repro.perf.phases` — per-phase tick counters (collect /
  adversary / resolve / settle) filled in by the machine's fast path;
* :mod:`repro.perf.regression` — model-field comparison of two
  ``BENCH_*.json`` reports (the engine behind
  ``benchmarks/check_regression.py``, which CI runs once against the
  committed golden report).

To see where a bench run's time goes, profile the command itself:
``python -m cProfile -o bench.prof -m repro bench --scenarios ...``.
"""

from repro.perf.phases import PhaseCounters

__all__ = ["PhaseCounters"]
