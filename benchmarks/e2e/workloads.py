"""The four e2e workloads: their op tables, how an op runs, what it yields.

An *op* is one call a user waits on.  Each op returns an *outcome*, a
small dict of the run's model-level results (solved, the paper's S, S'
and |F|, ticks, ...) that the oracle pins and the harness compares.

Why these workloads (see README.md for the full table):

* ``quiet`` — failure-free or sparse-failure solves where at least 99%
  of ticks run in fused windows (scalar kernel, generator, vector).
* ``dense`` — adversaries that act on every tick, so no tick fuses and
  ``Machine.step`` plus ``Adversary.decide`` carry the run.
* ``simulate`` — Theorem 4.1's robust executor: hundreds of short
  Write-All phases on non-trivial task sets, one machine build each.
* ``reproduce`` — ``repro bench`` over registry scenarios into a fresh
  cache, then again on the warm cache: the sweep engine, its pool
  backend, the result cache and the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: The checkout this benchmark lives in; the library is imported from
#: its ``src/`` (no install needed).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOADS = ("quiet", "dense", "simulate", "reproduce")

#: (algorithm, registry adversary, N, P); see the module docstring.
QUIET = (
    ("trivial", "none", 1 << 20, 64),
    ("W", "none", 1 << 16, 64),
    ("X", "none", 1 << 14, 64),
    ("V", "sched-sparse", 1 << 14, 64),
    ("VX", "none", 1 << 13, 64),
    # froute's work swings by 26% (sd) with the seed's dead sets: keep
    # it small so the pass time follows the code, not the seed.
    ("froute", "static-mem", 1 << 12, 64),
    ("X", "sched-sparse", 1 << 12, 64),
)
DENSE = (
    # Under `random`, X's work is steady across seeds (sd ~1%) while V,
    # W and froute swing by 11-17%: the swingers stay small so the pass
    # time follows the code, not the seed.
    ("X", "random", 2048, 64),
    ("V", "random", 512, 64),
    ("W", "random", 256, 64),
    # froute@random blows up past N=2048 (README: exclusions).
    ("froute", "random", 512, 64),
    ("VX", "stalker", 128, 128),
    ("X", "thrashing", 128, 64),
    ("X", "halving", 1024, 1024),
    ("X", "speed-classes", 1024, 64),
)
#: Simulated program width and simulating processors.  VX can break
#: COMMON CRCW under budgeted churn (README: exclusions); at this size
#: workload seeds 0-99 run clean.
SIM_N, SIM_P = 64, 2
SIM_PROGRAMS = ("prefix-sum", "max-find", "odd-even-sort")
#: ``repro bench`` scenarios whose cold runs each took at most 0.25 s
#: on the reference host: 11 scenarios, 38 sweeps, 98 points.
REPRODUCE_SCENARIOS = (
    "A6_w_vs_v", "A8_adaptive_smallsize", "E2_thm31_lower_bound",
    "E3_thm32_snapshot", "E4_lemma42_v_failstop", "E10_corollaries_sigma",
    "E14_lemma45_oversubscription", "R1_static_proc", "R2_static_mem_routing",
    "R3_pmem_checkpoint", "R4_hetero_speed",
)
SMOKE_REPRODUCE_SCENARIOS = ("R1_static_proc", "R4_hetero_speed")
REPRODUCE_WORKERS = 2


def benchmark() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics a run reports."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_library() -> None:
    """Import every library module an op calls: part of set-up time."""
    import repro.cli  # noqa: F401
    import repro.core.runner  # noqa: F401
    import repro.experiments.bench  # noqa: F401
    import repro.faults.registry  # noqa: F401
    import repro.perf.phases  # noqa: F401
    import repro.simulation.programs  # noqa: F401


def derive_seed(seed: int, key: str) -> int:
    """The seed op ``key`` uses under workload seed ``seed``.

    Kept below 100: ``sched-sparse`` shifts its event ticks by the
    seed, and a larger shift would push the events past the run.
    """
    digest = hashlib.sha256(f"{seed}/{key}".encode()).hexdigest()
    return int(digest[:8], 16) % 100


def _algorithms() -> Dict[str, type]:
    from repro.core import (
        AlgorithmV, AlgorithmVX, AlgorithmW, AlgorithmX, FaultRouting,
        TrivialAssignment,
    )

    return {
        "trivial": TrivialAssignment, "W": AlgorithmW, "X": AlgorithmX,
        "V": AlgorithmV, "VX": AlgorithmVX, "froute": FaultRouting,
    }


def seed_independent(adversary: str) -> bool:
    """Whether the registry builds the same adversary for every seed."""
    from repro.faults import registry

    return pickle.dumps(registry.build(adversary, seed=0)) == pickle.dumps(
        registry.build(adversary, seed=1)
    )


@dataclass(frozen=True)
class Op:
    """One timed call.  ``kind`` is ``solve``, ``simulate`` or ``bench``."""

    kind: str
    name: str
    n: int = 0
    p: int = 0
    algorithm: str = ""
    adversary: str = ""
    seed: int = 0
    #: Outcomes of a seeded op differ between workload seeds; the
    #: oracle files key them by seed as well.
    seeded: bool = True

    @property
    def key(self) -> str:
        if self.kind == "bench":
            return self.name
        label = f"{self.name} {self.n}x{self.p}"
        return f"{label} seed={self.seed}" if self.seeded else label


def build_ops(workload: str, seed: int, smoke: bool = False) -> List[Op]:
    """The op list of one pass of ``workload`` under ``seed``."""
    if workload in ("quiet", "dense"):
        table = QUIET if workload == "quiet" else DENSE
        ops = []
        for algorithm, adversary, n, p in table:
            if smoke:
                n, p = min(n, 256), min(p, 16)
            name = f"{algorithm}@{adversary}"
            seeded = not seed_independent(adversary)
            ops.append(Op(
                "solve", name, n, p, algorithm, adversary,
                derive_seed(seed, name) if seeded else 0, seeded,
            ))
        return ops
    if workload == "simulate":
        n = 16 if smoke else SIM_N
        return [
            Op("simulate", program, n, SIM_P, "VX", "budgeted-random",
               derive_seed(seed, program))
            for program in SIM_PROGRAMS
        ]
    if workload == "reproduce":
        tags = SMOKE_REPRODUCE_SCENARIOS if smoke else REPRODUCE_SCENARIOS
        return [Op("bench", ",".join(tags), seeded=False)]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


# --------------------------------------------------------------------- #
# solve
# --------------------------------------------------------------------- #

def run_solve(op: Op, lane: str = "auto", phase_counters=None) -> dict:
    """Solve one Write-All instance; ``lane`` is ``auto`` or ``reference``."""
    from repro.core.runner import solve_write_all
    from repro.faults import registry

    algorithm = _algorithms()[op.algorithm]()
    adversary = registry.build(op.adversary, seed=op.seed)
    if lane == "reference":
        result = solve_write_all(
            algorithm, op.n, op.p, adversary=adversary,
            fast_path=False, fast_forward=False, compiled=False,
        )
    else:
        result = solve_write_all(
            algorithm, op.n, op.p, adversary=adversary, vectorized="auto",
            phase_counters=phase_counters,
        )
    return {
        "solved": result.solved,
        "S": result.completed_work,
        "S_prime": result.charged_work,
        "F": result.pattern_size,
        "ticks": result.ledger.ticks,
    }


# --------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------- #

def _sim_program(name: str, n: int):
    from repro.simulation.programs import (
        max_find_program, odd_even_sort_program, prefix_sum_program,
    )

    builders = {
        "prefix-sum": prefix_sum_program, "max-find": max_find_program,
        "odd-even-sort": odd_even_sort_program,
    }
    return builders[name](n)


def sim_input(op: Op) -> List[int]:
    rng = random.Random(op.seed)
    return [rng.randint(0, 99) for _ in range(op.n)]


def sim_answer_ok(name: str, data: List[int], memory: List[int]) -> bool:
    """Whether ``memory`` holds the program's correct answer for ``data``."""
    n = len(data)
    if name == "prefix-sum":
        running, expected = 0, []
        for value in data:
            running += value
            expected.append(running)
        return memory[:n] == expected
    if name == "max-find":
        return memory[n] == max(data)
    return memory[:n] == sorted(data)


def run_simulate(op: Op, lane: str = "auto") -> dict:
    """Execute one program robustly under E11's budgeted random churn."""
    from repro.core import AlgorithmVX
    from repro.faults import FailureBudgetAdversary, RandomAdversary
    from repro.simulation import RobustSimulator

    program = _sim_program(op.name, op.n)
    # E11's failure budget: tau * N / log N.
    budget = int(len(program) * op.n / math.log2(op.n))
    adversary = FailureBudgetAdversary(
        RandomAdversary(0.05, 0.4, seed=op.seed), budget
    )
    if lane == "reference":
        simulator = RobustSimulator(
            p=op.p, algorithm=AlgorithmVX(), adversary=adversary,
            fast_path=False, fast_forward=False, compiled=False,
        )
    else:
        simulator = RobustSimulator(
            p=op.p, algorithm=AlgorithmVX(), adversary=adversary,
            vectorized="auto",
        )
    data = sim_input(op)
    result = simulator.execute(program, list(data))
    return {
        "solved": result.solved,
        "answer_ok": sim_answer_ok(op.name, data, result.memory),
        "S": result.total_work,
        "F": result.total_pattern_size,
        "phases": len(result.phases),
        "ticks": sum(record.ledger.ticks for record in result.phases),
    }


# --------------------------------------------------------------------- #
# reproduce
# --------------------------------------------------------------------- #

def point_digests(report: dict) -> Dict[str, str]:
    """scenario|sweep|n|p|seed -> digest of the point's model results."""
    digests = {}
    for scenario in report["scenarios"]:
        for sweep in scenario["sweeps"]:
            for point in sweep["points"]:
                coords = "|".join(str(part) for part in (
                    scenario["tag"], sweep["name"], point["n"], point["p"],
                    point["seed"],
                ))
                fields = [point[key] for key in
                          ("solved", "S", "S_prime", "F", "ticks")]
                digests[coords] = hashlib.sha256(
                    json.dumps(fields).encode()
                ).hexdigest()[:16]
    return digests


def _bench(tags: str, cache_dir: str, out_dir: str) -> Tuple[int, dict]:
    from repro import cli

    argv = [
        "bench", "--scenarios", tags, "--workers", str(REPRODUCE_WORKERS),
        "--cache-dir", cache_dir, "--out", out_dir, "--tag", "e2e",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    with open(os.path.join(out_dir, "BENCH_e2e.json")) as handle:
        return code, json.load(handle)


def run_bench(op: Op, scratch: str) -> dict:
    """Cold ``repro bench`` into a fresh cache, then warm on that cache."""
    cache_dir = os.path.join(scratch, "cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        cold_code, cold = _bench(op.name, cache_dir, scratch)
        warm_code, warm = _bench(op.name, cache_dir, scratch)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    cold_points = [
        point for scenario in cold["scenarios"] for sweep in scenario["sweeps"]
        for point in sweep["points"]
    ]
    executed = [point for point in cold_points if not point["cached"]]
    return {
        "solved": cold_code == 0 and warm_code == 0,
        "failed_points": cold["totals"]["failed"] + warm["totals"]["failed"],
        "S": sum(point["S"] for point in executed),
        "warm_hits": warm["totals"]["cache_hits"],
        "warm_equals_cold": point_digests(warm) == point_digests(cold),
        "digests": point_digests(cold),
        "worker_busy_s": sum(point["wall_s"] for point in executed),
        "cold_wall_s": cold["totals"]["wall_s"],
    }


def run_op(op: Op, scratch: str, phase_counters=None) -> dict:
    """Run ``op`` on the default lanes and return its outcome."""
    if op.kind == "solve":
        return run_solve(op, phase_counters=phase_counters)
    if op.kind == "simulate":
        return run_simulate(op)
    return run_bench(op, scratch)


#: Outcome fields that are host measurements, not model results.
HOST_FIELDS = ("worker_busy_s", "cold_wall_s")


def model_fields(outcome: dict) -> dict:
    return {k: v for k, v in outcome.items() if k not in HOST_FIELDS}
