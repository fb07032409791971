"""One workload's measurement process: warm-up, timed passes, checks.

``run.py`` starts this file as a fresh interpreter per workload, so
each workload's peak RSS and warm state are its own.  Load is a closed
loop with one client: the ops of a pass run back to back, one untimed
warm-up pass first, then timed passes until ``--seconds`` is used up.
With ``--trace 1`` the timed passes alternate untraced and traced, so
``trace.overhead`` compares passes from the same process.

``--setup-only`` stops once the workload is ready (library imports, op
table, the dispatch probe) and prints ``ready <mean probe seconds>``:
``run.py`` times that from interpreter start as ``setup_s`` and
normalizes it with the host speed sampled meanwhile.

The last stdout line is the run's result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter
from typing import Dict, List, Optional

import workloads  # noqa: I001 - puts the library's src/ on sys.path
from measure import HostMeter, summary
from oracle import expected_outcomes, mismatch
from spans import CALLS, OP, SELF_TIME, DispatchTally, Tracer

#: Fewest timed passes per kind (untraced, traced) whatever --seconds.
MIN_PASSES = 3

PHASES = ("collect", "adversary", "resolve", "settle")


class PassRecord:
    """One pass: per-op raw/normalized wall, outcomes, phase counters."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.outcomes: List[Optional[dict]] = []
        self.errors: List[Optional[str]] = []
        self.phase_counters: List[object] = []

    @property
    def work(self) -> int:
        """The paper's S summed over the pass's ops."""
        return sum(o["S"] for o in self.outcomes if o is not None)


class Harness:
    def __init__(self, workload: str, seed: int, smoke: bool, out: str,
                 trace: bool) -> None:
        from repro.pram.dispatch import DispatchModel, get_model, set_model

        workloads.import_library()
        self.workload = workload
        self.seed = seed
        self.ops = workloads.build_ops(workload, seed, smoke)
        # Every auto-lane user pays the dispatch probe once per process:
        # pay it here, in set-up, and report its scales.  Lanes are then
        # chosen by the unscaled model: on a shared host the probe's
        # reading swings with other tenants' load, and the lane flips it
        # causes would read as code changes.
        self.probe = get_model()
        set_model(DispatchModel())
        self.out = out
        self.tally = DispatchTally()
        self.tally.install()
        self.tracer: Optional[Tracer] = None
        if trace:
            self.tracer = Tracer()
            self.tracer.install()

    def run_pass(self, scratch: str, traced: bool) -> PassRecord:
        from repro.perf.phases import PhaseCounters

        record = PassRecord(traced)
        tracer = self.tracer
        for op in self.ops:
            counters = PhaseCounters() if traced and op.kind == "solve" else None
            outcome, error = None, None
            # Each op starts from a collected heap, as in a fresh call.
            gc.collect()
            with HostMeter() as meter:
                start = perf_counter()
                try:
                    if traced:
                        tracer.enabled, tracer.op = True, op.key
                        with tracer.span(OP):
                            outcome = workloads.run_op(op, scratch, counters)
                    else:
                        outcome = workloads.run_op(op, scratch)
                except Exception as exc:  # an op that raises counts as failed
                    where = traceback.extract_tb(exc.__traceback__)[-1]
                    error = (f"{type(exc).__name__}: {exc} "
                             f"({where.filename}:{where.lineno})")
                finally:
                    wall = perf_counter() - start
                    if tracer is not None:
                        tracer.enabled = False
            record.raw_s += wall
            record.norm_s += meter.normalized(wall)
            record.outcomes.append(outcome)
            record.errors.append(error)
            record.phase_counters.append(counters)
        return record

    def measure(self, seconds: float) -> dict:
        scratch = tempfile.mkdtemp(prefix="scratch-", dir=self.out)
        try:
            warmup = self.run_pass(scratch, traced=False)
            timed: List[PassRecord] = []
            started = perf_counter()
            durations: List[float] = []
            while True:
                traced = self.tracer is not None and len(timed) % 2 == 1
                mark = perf_counter()
                timed.append(self.run_pass(scratch, traced))
                durations.append(perf_counter() - mark)
                untraced = sum(not record.traced for record in timed)
                enough = untraced >= MIN_PASSES and (
                    self.tracer is None or len(timed) - untraced >= MIN_PASSES
                )
                next_end = perf_counter() - started + max(durations)
                if enough and next_end > seconds:
                    break
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        failures = self.check([warmup, *timed])
        attempted = len(self.ops) * (1 + len(timed))
        result = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.tracer is not None,
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:10],
            "lanes": self.lanes(),
            "metrics": self.end_to_end(timed, usage / 1024.0),
        }
        if self.tracer is not None:
            result["layers"] = self.layers(timed)
            self.tracer.dump(os.path.join(
                self.out, f"trace-{self.workload}.jsonl"
            ))
        return result

    def check(self, passes: List[PassRecord]) -> List[str]:
        """One message per failed op execution (raised, unsolved, wrong)."""
        expected = expected_outcomes(self.workload, self.ops, self.seed)
        failures = []
        for number, record in enumerate(passes):
            for index, op in enumerate(self.ops):
                outcome = record.outcomes[index]
                if outcome is None:
                    why = record.errors[index]
                else:
                    reference = expected[op.key]
                    if reference is None and op.kind == "simulate":
                        # No committed outcome: the answer check plus
                        # agreement with the warm-up pass.
                        first = passes[0].outcomes[index]
                        reference = (
                            workloads.model_fields(first) if first else None
                        )
                    why = mismatch(op, outcome, reference)
                if why is not None:
                    failures.append(f"pass {number} {op.key}: {why}")
        return failures

    def lanes(self) -> dict:
        decisions = self.tally.decisions
        return {
            "dispatch_calls": len(decisions),
            "vec_share": sum(decisions) / len(decisions) if decisions else 0.0,
            "scale_scalar": self.probe.scale_scalar,
            "scale_vector": self.probe.scale_vector,
        }

    def end_to_end(self, timed: List[PassRecord], peak_rss_mb: float) -> dict:
        plain = [record for record in timed if not record.traced]
        metrics = {
            "pass_s": summary([record.norm_s for record in plain]),
            "cycles_per_s": summary(
                [record.work / record.norm_s for record in plain]
            ),
            "peak_rss_mb": summary([peak_rss_mb]),
            "raw_pass_s": summary([record.raw_s for record in plain]),
        }
        units = {"pass_s": "s", "cycles_per_s": "cycles/s",
                 "peak_rss_mb": "MB", "raw_pass_s": "s"}
        for name, entry in metrics.items():
            entry["unit"] = units[name]
        return metrics

    def layers(self, timed: List[PassRecord]) -> Dict[str, dict]:
        tracer = self.tracer
        traced = [record for record in timed if record.traced]
        plain = [record for record in timed if not record.traced]
        k = len(traced)
        values: Dict[str, float] = {}
        for name, spans in SELF_TIME.items():
            values[name] = tracer.self_time(*spans) / k
        for name, span in CALLS.items():
            values[name] = tracer.calls(span) / k
        values["pram.vec.ticks"] = tracer.counters["pram.vec.ticks"] / k
        work = sum(record.work for record in traced)
        values["pram.window_ns_per_cycle"] = (
            values["pram.window_s"] * k * 1e9 / work if work else 0.0
        )
        counters = [c for r in traced for c in r.phase_counters if c is not None]
        outcomes = [o for r in traced for o in r.outcomes if o is not None]
        if counters:
            fused = sum(c.fused_ticks for c in counters)
            total = fused + sum(c.ticks for c in counters)
        else:
            # No PhaseCounters hook (the simulator): every tick outside
            # a fused window goes through Machine.step.
            total = sum(o.get("ticks", 0) for o in outcomes if "phases" in o)
            fused = total - tracer.calls("pram.Machine.step")
        values["pram.fused_tick_share"] = fused / total if total else 0.0
        for phase in PHASES:
            values[f"pram.phase.{phase}_s"] = (
                sum(getattr(c, f"{phase}_s") for c in counters) / k
            )
        lanes = self.lanes()
        values["pram.dispatch.calls"] = lanes["dispatch_calls"] / (1 + len(timed))
        values["pram.dispatch.vec_share"] = lanes["vec_share"]
        values["pram.dispatch.scale_scalar"] = lanes["scale_scalar"]
        values["pram.dispatch.scale_vector"] = lanes["scale_vector"]
        values["simulation.phases"] = sum(o.get("phases", 0) for o in outcomes) / k
        busy = sum(o.get("worker_busy_s", 0.0) for o in outcomes)
        cold_wall = sum(o.get("cold_wall_s", 0.0) for o in outcomes)
        values["experiments.worker_busy_s"] = busy / k
        values["experiments.worker_util"] = (
            busy / (workloads.REPRODUCE_WORKERS * cold_wall) if cold_wall else 0.0
        )
        loads = tracer.calls("experiments.cache.load")
        values["experiments.cache.hit_share"] = (
            tracer.counters["experiments.cache.hits"] / loads if loads else 0.0
        )
        op_s = tracer.op_s()
        values["trace.attributed_share"] = (
            tracer.attributed_s() / op_s if op_s else 0.0
        )
        values["trace.overhead"] = (
            summary([r.norm_s for r in traced])["value"]
            / summary([r.norm_s for r in plain])["value"] - 1.0
        )
        return {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in workloads.benchmark()["per_layer"]
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=".")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with HostMeter() as meter:
        harness = Harness(args.workload, args.seed, args.smoke, args.out,
                          bool(args.trace))
    if args.setup_only:
        print(f"ready {meter.mean_probe_s()}", flush=True)
        return 0
    result = harness.measure(args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
