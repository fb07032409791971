"""Unified benchmark driver.

Runs the registered benchmark scenarios (see
``repro.experiments.bench``) through the parallel sweep engine, checks
every paper claim of every scenario it ran, and writes a
machine-readable ``BENCH_<tag>.json`` report (each claim's measured
value next to its bound); it exits 1 if a point fails or a claim does
not hold.  This is a thin wrapper over ``python -m repro bench`` so the
two entry points cannot diverge::

    PYTHONPATH=src python benchmarks/driver.py --workers 4 --tag nightly
    python benchmarks/driver.py --scenarios all   # every claim
    python benchmarks/driver.py --list
    python benchmarks/driver.py --scenarios E1_thrashing,E2_thm31_lower_bound
    python benchmarks/driver.py --scenarios E1_thrashing --profile bench.prof

``--profile PATH`` (driver-level, not forwarded to the CLI) wraps the
whole run in cProfile via :mod:`repro.perf.profile_hook` — the quickest
way to see where scenario time goes after a core change.

All other flags are forwarded to ``repro bench`` verbatim — including
the chaos-injection flags (``--chaos-seed`` plus
``--chaos-crash/-stall/-error/-corrupt``), so a benchmark run can be
exercised under deterministic fault injection; chaos stays strictly
opt-in and the recovery accounting (retries, crashes, pool restarts,
corrupt cache entries) lands in the report's per-sweep ``stats``.

The report schema is documented in ``repro.metrics.report`` and
``docs/EXPERIMENT_ENGINE.md``.  A second run with the same cache
directory is served entirely from cache (100% hit rate), which is what
makes regenerating the full suite cheap after a partial change.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def _split_profile(argv):
    """Extract ``--profile PATH`` / ``--profile=PATH`` from ``argv``."""
    profile_path = None
    forwarded = []
    position = 0
    while position < len(argv):
        token = argv[position]
        if token == "--profile":
            if position + 1 >= len(argv):
                raise SystemExit("--profile needs a PATH argument")
            profile_path = argv[position + 1]
            position += 2
            continue
        if token.startswith("--profile="):
            profile_path = token.split("=", 1)[1]
            position += 1
            continue
        forwarded.append(token)
        position += 1
    return profile_path, forwarded


def main(argv=None) -> int:
    from repro.cli import main as repro_main
    from repro.perf.profile_hook import maybe_profile

    arguments = list(sys.argv[1:] if argv is None else argv)
    profile_path, forwarded = _split_profile(arguments)
    with maybe_profile(profile_path):
        return repro_main(["bench"] + forwarded)


if __name__ == "__main__":
    sys.exit(main())
