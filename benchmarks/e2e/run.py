"""End-to-end benchmark of the repro library: four workloads, one command.

Usage (from the root of a checkout; see README.md)::

    python3 benchmarks/e2e/run.py [--workloads quiet,dense,simulate,reproduce]
        [--seed 0] [--seconds 15] [--trace [0|1]] [--smoke] [--out DIR]

``--workload NAME`` runs a single workload.
Each workload runs in its own fresh interpreter (``harness.py``).  The
runner prints every end-to-end metric by name and unit with its sample
count and IQR, checks every op's output, appends the full result to
``DIR/runs.jsonl`` and prints one JSON object as its last stdout line::

    {"correct": true, "attempted": 64, "failed": 0,
     "metrics": {"pass_s": {"value": 1.93, "unit": "s"}, ...}}

With ``--trace`` the metrics are the per-layer ones and the spans go to
``DIR/trace-<workload>.jsonl``.  The exit code is 1 if any op failed,
2 if the library is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List

import workloads  # noqa: I001 - puts the library's src/ on sys.path
from measure import normalized, summary
from workloads import ROOT, WORKLOADS

HARNESS = Path(__file__).resolve().parent / "harness.py"
#: Fresh interpreters timed for setup_s (the median is reported).
SETUP_RUNS = 7
SMOKE_SETUP_RUNS = 2
SMOKE_SECONDS = 1.0


def _harness_cmd(workload: str, args, extra: List[str]) -> List[str]:
    command = [sys.executable, str(HARNESS), "--workload", workload,
               "--seed", str(args.seed), "--out", str(args.out)]
    if args.smoke:
        command.append("--smoke")
    return command + extra


def measure_setup(workload: str, args, runs: int) -> dict:
    """Interpreter start to "workload ready", normalized, over ``runs``.

    The child samples the host speed while it sets up and reports the
    mean probe time on its ``ready`` line.
    """
    samples, raw = [], []
    for _ in range(runs):
        start = perf_counter()
        with subprocess.Popen(
            _harness_cmd(workload, args, ["--setup-only"]),
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        word, _, probe_s = line.partition(" ")
        if word != "ready" or code != 0:
            raise RuntimeError(f"{workload} setup failed (exit {code})")
        raw.append(wall)
        samples.append(normalized(wall, float(probe_s)))
    return {**summary(samples), "unit": "s", "raw": summary(raw)["value"]}


def run_workload(workload: str, args) -> dict:
    """Setup timing, then the measured child; returns the full record."""
    from repro.metrics.report import environment_section

    setup = None if args.trace else measure_setup(
        workload, args, SMOKE_SETUP_RUNS if args.smoke else SETUP_RUNS
    )
    command = _harness_cmd(
        workload, args, ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, text=True,
        timeout=3 * args.seconds + 120,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} harness failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = setup
    environment = environment_section()
    # The interpreter's path says nothing about the measurement.
    environment.pop("executable", None)
    result["environment"] = {**environment, **result.pop("lanes")}
    result["seconds"] = args.seconds
    return result


def reported(result: dict) -> dict:
    """The metrics of the result line: end-to-end, or per-layer if traced."""
    if result["trace"]:
        return result["layers"]
    return {metric["name"]: result["metrics"][metric["name"]]
            for metric in workloads.benchmark()["end_to_end"]}


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}): "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4f}")
    for name, entry in reported(result).items():
        spread = ""
        if "n" in entry:
            spread = f"  (n={entry['n']}, IQR {100 * entry['iqr_share']:.1f}%)"
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}{spread}")
    if not result["trace"]:
        raw = result["metrics"]["raw_pass_s"]
        print(f"  {'(raw wall pass_s)':32s} {raw['value']:14.6g} s"
              f"  (n={raw['n']}, IQR {100 * raw['iqr_share']:.1f}%)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma list of workloads (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and 1 s per workload")
    parser.add_argument("--out", default=str(ROOT / ".bench_e2e"),
                        help="directory for runs.jsonl and traces")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no library at {ROOT / 'src' / 'repro'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [
        name.strip() for name in args.workloads.split(",") if name.strip()
    ]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {WORKLOADS}")
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    args.out = Path(args.out).resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    results = []
    for name in names:
        result = run_workload(name, args)
        results.append(result)
        print_result(result)
        with open(args.out / "runs.jsonl", "a") as handle:
            handle.write(json.dumps(result, sort_keys=True) + "\n")
    if len(results) == 1:
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in reported(results[0]).items()}
    else:
        metrics = {f"{result['workload']}.{name}": {
            "value": entry["value"], "unit": entry["unit"]}
            for result in results for name, entry in reported(result).items()}
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
