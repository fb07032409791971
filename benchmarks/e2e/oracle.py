"""Expected outcomes: the reference lane pins what every op must yield.

``expected/seed-<s>.json`` holds, for workload seed ``s``, the outcome
of every ``quiet``, ``dense`` and ``simulate`` op computed on the
machine's reference lane (``fast_path=False, fast_forward=False,
compiled=False``: the executable specification).  ``expected/
reproduce.json`` pins a digest of every ``reproduce`` point.

For a seed without a committed file, :func:`expected_outcomes` computes
the oracle on demand: outcomes of ops whose adversary ignores the seed
come from ``seed-0.json``, the rest run on the reference lane now
(about 2-3 s per workload).  ``simulate`` ops without a committed
outcome are checked by their answers alone (prefix sums, max, sorted).

Regenerate (takes a few minutes)::

    PYTHONPATH=src python benchmarks/e2e/oracle.py --seeds 0 1 --reproduce
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional

import workloads
from workloads import Op

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
REPRODUCE_FILE = os.path.join(EXPECTED_DIR, "reproduce.json")


def seed_file(seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"seed-{seed}.json")


def _load(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def reference_outcome(op: Op) -> dict:
    """``op``'s outcome on the reference lane."""
    if op.kind == "solve":
        return workloads.run_solve(op, lane="reference")
    return workloads.run_simulate(op, lane="reference")


def expected_outcomes(workload: str, ops: List[Op], seed: int) -> Dict[str, dict]:
    """op key -> expected outcome (``None`` where only the answer is checked)."""
    if workload == "reproduce":
        pinned = _load(REPRODUCE_FILE) or {"scenarios": {}}
        return {op.key: pinned["scenarios"].get(op.key) for op in ops}
    committed = (_load(seed_file(seed)) or {}).get(workload, {})
    fallback = (_load(seed_file(0)) or {}).get(workload, {})
    expected = {}
    for op in ops:
        if op.key in committed:
            expected[op.key] = committed[op.key]
        elif not op.seeded and op.key in fallback:
            expected[op.key] = fallback[op.key]
        elif op.kind == "solve":
            expected[op.key] = reference_outcome(op)
        else:
            expected[op.key] = None
    return expected


def mismatch(op: Op, outcome: dict, expected: Optional[dict]) -> Optional[str]:
    """Why ``outcome`` fails its checks, or ``None`` when it passes."""
    if not outcome.get("solved"):
        return "unsolved"
    if op.kind == "simulate" and not outcome["answer_ok"]:
        return "wrong answer"
    if op.kind == "bench":
        if outcome["failed_points"]:
            return f"{outcome['failed_points']} failed points"
        if not outcome["warm_equals_cold"]:
            return "warm pass differs from cold pass"
        if outcome["warm_hits"] != len(outcome["digests"]):
            return f"warm pass hit the cache {outcome['warm_hits']} times"
        if expected is None:
            return "no committed digests for these scenarios"
        if outcome["digests"] != expected:
            wrong = sorted(
                coords for coords in set(expected) | set(outcome["digests"])
                if expected.get(coords) != outcome["digests"].get(coords)
            )
            return f"{len(wrong)} points differ from the digests: {wrong[:3]}"
        return None
    if expected is not None:
        got = workloads.model_fields(outcome)
        if got != expected:
            return f"differs from the reference lane: {got} != {expected}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--reproduce", action="store_true",
                        help="also regenerate the reproduce point digests")
    args = parser.parse_args(argv)
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for seed in args.seeds:
        payload = {"seed": seed, "lane": "reference"}
        for workload in ("quiet", "dense", "simulate"):
            payload[workload] = {}
            for op in workloads.build_ops(workload, seed):
                payload[workload][op.key] = reference_outcome(op)
                print(f"seed {seed} {workload} {op.key}: "
                      f"{payload[workload][op.key]}", flush=True)
        with open(seed_file(seed), "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.reproduce:
        payload = {"scenarios": {}}
        for smoke in (False, True):
            (op,) = workloads.build_ops("reproduce", 0, smoke)
            with tempfile.TemporaryDirectory() as scratch:
                outcome = workloads.run_bench(op, scratch)
            if not outcome["solved"] or not outcome["warm_equals_cold"]:
                print(f"reproduce run failed: {outcome}", file=sys.stderr)
                return 1
            payload["scenarios"][op.key] = outcome["digests"]
            print(f"pinned {len(outcome['digests'])} points of {op.key}")
        with open(REPRODUCE_FILE, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
