"""Profiling and micro-benchmark harness for the simulator core.

The paper's measures (S, S', sigma) are model-level and host-independent;
this package measures the *simulator itself* — wall-clock tick throughput
of the machine's hot loop — so core optimizations can be quantified;
it also gates the model fields of benchmark reports:

* :mod:`repro.perf.timing` — warmup/repeat/min-of-k wall-clock timing;
* :mod:`repro.perf.phases` — per-phase tick counters (collect /
  adversary / resolve / settle) filled in by the machine's fast path;
* :mod:`repro.perf.micro` — the ``python -m repro perf`` comparison of
  a machine lane against its ablation lanes and the reference lane
  (the executable specification);
* :mod:`repro.perf.profile_hook` — opt-in cProfile capture;
* :mod:`repro.perf.regression` — model-field comparison of two
  ``BENCH_*.json`` reports (the engine behind
  ``benchmarks/check_regression.py``, which CI runs once against the
  committed golden report).
"""

from repro.perf.phases import PhaseCounters
from repro.perf.timing import TimingResult, time_callable

__all__ = ["PhaseCounters", "TimingResult", "time_callable"]
