"""Compare two ``BENCH_*.json`` reports for regressions.

Thin CLI over :mod:`repro.perf.regression`::

    PYTHONPATH=src python benchmarks/check_regression.py \
        benchmarks/results/BENCH_compiled_perf.json \
        benchmarks/results/BENCH_ci.json

Model-level fields (solved, S, S', |F|, ticks) must match exactly —
they are deterministic, so any difference is a semantics change and an
error.  Wall-clock is banded: a point is flagged only when the
candidate exceeds ``baseline * (1 + --wall-tolerance)`` and the
baseline point was slow enough to measure (``--min-wall``).

Structural problems get named errors instead of per-point noise:
``backend-mismatch`` (reports timed different dispatch fabrics),
``scenario-missing`` / ``lane-mismatch`` (coverage lost wholesale), and
``model-tag-missing`` (the baseline's ``adversaries`` list names an
adversary absent from :mod:`repro.faults.registry`, so its fault model
cannot be reproduced by this build).

Exit status: 0 when clean, 1 on errors or perf warnings.  With
``--gate-model`` only model-level errors (and coverage gaps) fail the
check while wall-clock warnings stay informational — that is how CI
runs it: deterministic fields gate on any host, timings are advisory
across heterogeneous machines.  With ``--informational`` the comparison
is printed but the exit status is always 0.
"""

import argparse
import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def main(argv=None) -> int:
    from repro.metrics.report import load_report
    from repro.perf.regression import (
        DEFAULT_MIN_WALL_S,
        DEFAULT_WALL_TOLERANCE,
        compare_reports,
    )

    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json reports with tolerance bands"
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--wall-tolerance", type=float, default=DEFAULT_WALL_TOLERANCE,
        help="relative wall-clock band: candidate may be up to "
             "(1 + this) x baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--min-wall", type=float, default=DEFAULT_MIN_WALL_S,
        help="ignore wall-clock of baseline points faster than this "
             "many seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--gate-model", action="store_true",
        help="fail only on model-field mismatches and coverage gaps; "
             "wall-clock warnings are printed but do not gate",
    )
    parser.add_argument(
        "--informational", action="store_true",
        help="print the comparison but always exit 0",
    )
    args = parser.parse_args(argv)

    report = compare_reports(
        load_report(args.baseline),
        load_report(args.candidate),
        wall_tolerance=args.wall_tolerance,
        min_wall_s=args.min_wall,
    )
    print(report.render())
    if args.informational:
        return 0
    if args.gate_model:
        return 0 if report.model_ok else 1
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
