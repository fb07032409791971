"""Outside-in span tracing of the repro layers.

:class:`Tracer` wraps public functions and methods of the library from
the benchmark's side, so nothing under ``src/`` changes.  A method is
wrapped only on the class whose ``__dict__`` defines it: the machine's
MRO trust guards (``_is_passive``, ``_trusted_quiet_hook``,
``trusted_compiled_program``, ``trusted_vectorized_program``) read the
same class dicts before and after wrapping, so a traced run takes the
same lane and horizon decisions as an untraced one.  Module-level
functions are wrapped under the name their caller looks up (for
example ``repro.core.runner.verify_solution``), once each.

Spans record name, start, end, own id, parent id and op key.  They stay
in memory (capped) and :meth:`Tracer.dump` writes them as JSON lines.
Per-name call counts, total time and self time (duration minus the time
covered by child spans) are kept exactly, whatever the cap.  Pool
workers forked from a traced process inherit the wrappers but record
nothing: the tracer switches itself off in every forked child.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Root span opened by the benchmark around each op; not a layer.
OP = "op"

#: Span names summed (by self time) into each per-layer time metric.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "core.setup_s": (
        "core.build_layout", "core.initialize_memory", "core.SharedMemory",
        "core.Machine", "core.load_program", "core.resolve_kernel",
        "core.resolve_vectorized",
    ),
    "core.verify_s": ("core.verify_solution",),
    "pram.window_s": ("pram.Machine.run",),
    "pram.step_s": ("pram.Machine.step",),
    "pram.vec.run_quiet_s": ("pram.vec.run_quiet",),
    "pram.vec.boundary_s": (
        "pram.vec.begin_window", "pram.vec.resume", "pram.vec.flush",
        "pram.vec.close",
    ),
    "pram.memory.sync_s": ("pram.memory.sync_cells", "pram.memory.replace_cells"),
    "faults.decide_s": ("faults.decide",),
    "faults.horizon_s": ("faults.quiet_until",),
    "simulation.self_s": ("simulation.execute",),
    "experiments.engine_s": ("experiments.run_sweep_parallel",),
    "experiments.collect_wait_s": ("experiments.PoolBackend.collect",),
    "experiments.cache.load_s": ("experiments.cache.load",),
    "experiments.cache.store_s": ("experiments.cache.store",),
    "experiments.cache.checkpoint_s": ("experiments.cache.write_checkpoint",),
    "experiments.cache.key_s": ("experiments.cache.point_key",),
    "metrics.report_s": ("metrics.scenario_section", "metrics.bench_report"),
    "cli.self_s": ("cli.main",),
}

#: Span names whose call counts are per-layer metrics.
CALLS: Dict[str, str] = {
    "pram.step_calls": "pram.Machine.step",
    "pram.vec.bursts": "pram.vec.run_quiet",
    "faults.decide_calls": "faults.decide",
    "faults.horizon_calls": "faults.quiet_until",
    "experiments.pool_spawns": "experiments.PoolBackend.__init__",
}


def _defining_classes(classes, attr: str) -> List[type]:
    """The classes (deduplicated, MRO order) whose dict defines ``attr``."""
    owners: List[type] = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in vars(klass):
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


def _all_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_all_subclasses(sub))
    return found


def _burst_ticks(tracer: "Tracer", result) -> None:
    tracer.counters["pram.vec.ticks"] += result.ticks


def _cache_hit(tracer: "Tracer", result) -> None:
    tracer.counters["experiments.cache.hits"] += result is not None


class Tracer:
    """Records spans around calls into the library's public surface."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.enabled = False
        # A forked pool worker must not record into its copy of the
        # parent's span log; spawned workers never see the wrappers.
        os.register_at_fork(after_in_child=self._disable)
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.op: Optional[str] = None
        self._stack: List[List] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------- #

    def _enter(self) -> list:
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, stack[-1][0] if stack else None, 0.0, 0.0]
        stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        span_id, parent, child_s, start = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start, end, span_id, parent, self.op))
        else:
            self.dropped += 1

    def _wrap(self, fn: Callable, name: str, observe=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body as one span nested under the innermost open one."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def _disable(self) -> None:
        self.enabled = False

    # -- installation ------------------------------------------------- #

    def _patch(self, owner: object, attr: str, name: str, observe=None) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, observe))

    def install(self) -> None:
        """Wrap every traced entry point (wrappers stay idle until enabled)."""
        import repro.core as core
        import repro.core.runner as runner
        import repro.core.vector_kernels  # noqa: F401 - registers VectorProgram subclasses
        import repro.experiments.bench as bench
        import repro.experiments.parallel as parallel
        import repro.simulation.executor as executor
        from repro import cli
        from repro.experiments.backends.local import PoolBackend
        from repro.experiments.cache import ResultCache
        from repro.faults.base import Adversary
        from repro.faults.registry import CLASS_TAGS
        from repro.pram.machine import Machine
        from repro.pram.memory import SharedMemory
        from repro.pram.vectorized import VectorProgram, VectorWindow
        from repro.simulation.executor import RobustSimulator

        algorithms = [
            core.TrivialAssignment, core.AlgorithmW, core.AlgorithmX,
            core.AlgorithmV, core.AlgorithmVX, core.FaultRouting,
        ]
        for attr in ("build_layout", "initialize_memory"):
            for owner in _defining_classes(algorithms, attr):
                self._patch(owner, attr, f"core.{attr}")
        for module in (runner, executor):
            for attr in ("resolve_kernel", "resolve_vectorized"):
                self._patch(module, attr, f"core.{attr}")
        self._patch(runner, "verify_solution", "core.verify_solution")
        self._patch(SharedMemory, "__init__", "core.SharedMemory")
        self._patch(Machine, "__init__", "core.Machine")
        self._patch(Machine, "load_program", "core.load_program")
        self._patch(Machine, "run", "pram.Machine.run")
        self._patch(Machine, "step", "pram.Machine.step")
        for owner in _defining_classes(_all_subclasses(VectorProgram), "run_quiet"):
            if owner is not VectorProgram:
                self._patch(owner, "run_quiet", "pram.vec.run_quiet", _burst_ticks)
        self._patch(VectorProgram, "begin_window", "pram.vec.begin_window")
        for attr in ("resume", "flush", "close"):
            self._patch(VectorWindow, attr, f"pram.vec.{attr}")
        for attr in ("sync_cells", "replace_cells"):
            self._patch(SharedMemory, attr, f"pram.memory.{attr}")
        adversaries = [Adversary, *CLASS_TAGS]
        for attr in ("decide", "quiet_until"):
            for owner in adversaries:
                if attr in vars(owner):
                    self._patch(owner, attr, f"faults.{attr}")
        self._patch(RobustSimulator, "execute", "simulation.execute")
        # bench re-exports run_sweep_parallel: wrap the name bench calls,
        # once, or every sweep would be counted twice.
        self._patch(bench, "run_sweep_parallel", "experiments.run_sweep_parallel")
        self._patch(PoolBackend, "__init__", "experiments.PoolBackend.__init__")
        self._patch(PoolBackend, "collect", "experiments.PoolBackend.collect")
        self._patch(ResultCache, "load", "experiments.cache.load", _cache_hit)
        self._patch(ResultCache, "store", "experiments.cache.store")
        self._patch(ResultCache, "write_checkpoint", "experiments.cache.write_checkpoint")
        self._patch(parallel, "point_key", "experiments.cache.point_key")
        for attr in ("scenario_section", "bench_report"):
            self._patch(bench, attr, f"metrics.{attr}")
        self._patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------- #

    def self_time(self, *names: str) -> float:
        return sum(self.stats[name][2] for name in names if name in self.stats)

    def calls(self, name: str) -> int:
        return int(self.stats[name][0]) if name in self.stats else 0

    def attributed_s(self) -> float:
        """Self time of every layer span (everything but the op roots)."""
        return sum(entry[2] for name, entry in self.stats.items() if name != OP)

    def op_s(self) -> float:
        return self.stats[OP][1] if OP in self.stats else 0.0

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for name, start, end, span_id, parent, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "id": span_id,
                    "parent": parent, "op": op,
                }) + "\n")
            if self.dropped:
                handle.write(json.dumps({"dropped": self.dropped}) + "\n")


class DispatchTally:
    """Records every ``DispatchModel.prefer_vector`` answer, untimed.

    Installed in traced and untraced runs alike: it costs one list
    append per fused window, and it lets a comparison tell a lane flip
    (the probe rescaled the cost model) from a code change.
    """

    def __init__(self) -> None:
        self.decisions: List[bool] = []
        self._original = None

    def install(self) -> None:
        from repro.pram.dispatch import DispatchModel

        original = self._original = vars(DispatchModel)["prefer_vector"]
        decisions = self.decisions

        @functools.wraps(original)
        def prefer_vector(model, *args, **kwargs):
            answer = original(model, *args, **kwargs)
            decisions.append(answer)
            return answer

        DispatchModel.prefer_vector = prefer_vector

    def uninstall(self) -> None:
        from repro.pram.dispatch import DispatchModel

        DispatchModel.prefer_vector = self._original
