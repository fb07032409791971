"""Gate a ``BENCH_*.json`` report's model fields against a baseline.

Thin CLI over :mod:`repro.perf.regression`; CI runs it once, against
the committed golden report of every registry scenario::

    PYTHONPATH=src python benchmarks/check_regression.py \
        benchmarks/results/BENCH_golden.json ci-bench/BENCH_ci_bench.json

Model-level fields (solved, S, S', |F|, ticks) must match exactly —
they are deterministic on any host, so any difference is a semantics
change and an error.  Wall-clock is not compared.

Lost coverage gets named errors instead of per-point noise:
``scenario-missing`` and ``sweep-missing`` name the scenario or sweep
the candidate lacks, ``missing-point`` a single point, and
``model-tag-missing`` an adversary the baseline's ``adversaries`` list
names but :mod:`repro.faults.registry` no longer has.  Points only the
candidate has are ``new-point`` info lines.

Exit status: 1 on any error, 0 otherwise.
"""

import argparse
import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def main(argv=None) -> int:
    from repro.metrics.report import load_report
    from repro.perf.regression import compare_reports

    parser = argparse.ArgumentParser(
        description="diff the model fields of two BENCH_*.json reports"
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    args = parser.parse_args(argv)

    report = compare_reports(
        load_report(args.baseline), load_report(args.candidate)
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
