"""Bound predictors and analysis helpers.

* :mod:`repro.metrics.bounds` — closed-form predictors for every bound
  the paper states (used by benchmarks to check measured shapes);
* :mod:`repro.metrics.fitting` — log-log exponent fitting and ratio
  series;
* :mod:`repro.metrics.tables` — ASCII tables for benchmark/example
  output;
* :mod:`repro.metrics.report` — the machine-readable ``repro-bench/1``
  benchmark report schema (``BENCH_<tag>.json``).
"""

from repro.metrics.bounds import (
    log2ceil,
    sigma_bound_thm41,
    work_lower_thm31,
    work_lower_thm48,
    work_upper_lemma42,
    work_upper_thm32,
    work_upper_thm43,
    work_upper_thm47,
    work_upper_thm49,
)
from repro.metrics.fitting import fitted_exponent, ratio_series
from repro.metrics.report import (
    bench_report,
    dump_report,
    load_report,
    validate_bench_report,
)
from repro.metrics.tables import render_table

__all__ = [
    "bench_report",
    "dump_report",
    "fitted_exponent",
    "load_report",
    "validate_bench_report",
    "log2ceil",
    "ratio_series",
    "render_table",
    "sigma_bound_thm41",
    "work_lower_thm31",
    "work_lower_thm48",
    "work_upper_lemma42",
    "work_upper_thm32",
    "work_upper_thm43",
    "work_upper_thm47",
    "work_upper_thm49",
]
