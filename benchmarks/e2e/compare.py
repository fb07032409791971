"""Compare two sets of e2e runs: one verdict per (metric, workload).

Usage::

    python benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl
    python benchmarks/e2e/compare.py --summary [--trace] SET.jsonl \
        >> benchmarks/e2e/results/history.jsonl

Each file is a set of untraced runs as ``run.py`` appends them to
``runs.jsonl`` (one JSON object per run; several seeds per workload).
Runs of the two sets are paired by seed.  For every end-to-end metric
in ``BENCHMARK.json`` and every workload in both sets the verdict is:

* ``improved`` — at least 10 pairs, the change wins at least 9/10 of
  all pairs (ties count for neither), and the medians differ by more
  than the parent's IQR;
* ``unresolved`` — fewer than 3 runs on a side, or the parent's IQR is
  wider than the metric's bound and not every change run beats every
  parent run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — otherwise.

``error_rate`` (failed / attempted ops) is judged with bound 0: any
increase is ``worse``.  Pairs whose dispatch decisions (``vec_share``)
differ, or sets whose probe scales differ by more than the parent's
own spread, are flagged: a lane flip is not a code gain.  The exit
code is 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from measure import summary

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
MIN_RUNS = 3
WIN_SHARE = 0.9


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    quartiles = summary(values)
    return quartiles["q1"], quartiles["q3"]


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    """The guide's rule for one (metric, workload); see the module doc."""
    if min(len(parent), len(change)) < MIN_RUNS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    q1, q3 = _quartiles(parent)
    wins = sum(sign * (new - old) > 0 for old, new in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved"
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if (q3 - q1) > bound * abs(base) and not all_better:
        return "unresolved"
    if -gain > bound * abs(base):
        return "worse"
    return "unchanged"


def load_set(path: str, trace: bool = False) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> run, of one kind (last run per seed wins)."""
    runs: Dict[str, Dict[int, dict]] = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                run = json.loads(line)
                if run["trace"] == trace:
                    runs[run["workload"]][run["seed"]] = run
    return runs


def lane_flags(parent: Dict[int, dict], change: Dict[int, dict]) -> List[str]:
    """Why this workload's timings may reflect a lane flip, not code."""
    flags = []
    for seed in sorted(set(parent) & set(change)):
        old = parent[seed]["environment"]["vec_share"]
        new = change[seed]["environment"]["vec_share"]
        if old != new:
            flags.append(f"seed {seed}: vec_share {old:.3f} -> {new:.3f}")
    for scale in ("scale_scalar", "scale_vector"):
        old = [run["environment"][scale] for run in parent.values()]
        new = [run["environment"][scale] for run in change.values()]
        q1, q3 = _quartiles(old)
        shift = statistics.median(new) - statistics.median(old)
        if abs(shift) > q3 - q1:
            flags.append(f"probe {scale} moved {shift:+.3f} "
                         f"(parent IQR {q3 - q1:.3f})")
    return flags


def compare(parent_path: str, change_path: str, benchmark: dict) -> List[dict]:
    parent, change = load_set(parent_path), load_set(change_path)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        old_runs, new_runs = parent[workload], change[workload]
        seeds = sorted(set(old_runs) & set(new_runs))
        flags = lane_flags(old_runs, new_runs)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            old = [run["metrics"][name]["value"] for run in old_runs.values()]
            new = [run["metrics"][name]["value"] for run in new_runs.values()]
            pairs = [(old_runs[s]["metrics"][name]["value"],
                      new_runs[s]["metrics"][name]["value"]) for s in seeds]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": old, "change": new, "pairs": len(pairs),
                "verdict": verdict(old, new, pairs, metric["better"],
                                   metric["bound"]),
                "flags": flags,
            })
        rates = []
        for runs in (old_runs, new_runs):
            failed = sum(run["failed"] for run in runs.values())
            attempted = sum(run["attempted"] for run in runs.values())
            rates.append(failed / attempted)
        rows.append({
            "workload": workload, "metric": "error_rate", "unit": "ratio",
            "parent": [rates[0]], "change": [rates[1]], "pairs": len(seeds),
            "verdict": "worse" if rates[1] > rates[0] else "unchanged",
            "flags": flags,
        })
    return rows


def summarize(path: str, trace: bool) -> dict:
    """One line for ``results/history.jsonl``: a set's medians and quartiles."""
    workloads = {}
    environment = {}
    for workload, runs in sorted(load_set(path, trace).items()):
        metrics = defaultdict(list)
        for run in runs.values():
            environment = run["environment"]
            for name, entry in run["layers" if trace else "metrics"].items():
                metrics[name].append(entry["value"])
        workloads[workload] = {"runs": len(runs), "seeds": sorted(runs)}
        for name, values in sorted(metrics.items()):
            q1, q3 = _quartiles(values)
            workloads[workload][name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
            }
    keep = ("python", "numpy", "cpu_count", "platform")
    return {
        "set": Path(path).name,
        "trace": trace,
        "environment": {key: environment.get(key) for key in keep},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="runs.jsonl of the parent commit")
    parser.add_argument("change", nargs="?", help="runs.jsonl of the change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--summary", action="store_true",
                        help="print the first set's history line instead")
    parser.add_argument("--trace", action="store_true",
                        help="with --summary: summarize the traced runs")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summarize(args.parent, args.trace), sort_keys=True))
        return 0
    if args.change is None:
        parser.error("a comparison needs two sets")
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    rows = compare(args.parent, args.change, benchmark)
    if not rows:
        print("no workload appears in both sets", file=sys.stderr)
        return 2
    print(f"{'workload':10s} {'metric':14s} {'parent median [q1, q3]':>30s}"
          f" {'change median [q1, q3]':>30s} pairs  verdict")
    for row in rows:
        cells = []
        for side in (row["parent"], row["change"]):
            q1, q3 = _quartiles(side)
            cells.append(f"{statistics.median(side):10.4g} "
                         f"[{q1:.4g}, {q3:.4g}]")
        print(f"{row['workload']:10s} {row['metric']:14s} {cells[0]:>30s}"
              f" {cells[1]:>30s} {row['pairs']:5d}  {row['verdict']}")
    flagged = {row["workload"]: row["flags"] for row in rows if row["flags"]}
    for workload, flags in sorted(flagged.items()):
        for flag in flags:
            print(f"flag {workload}: {flag}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
