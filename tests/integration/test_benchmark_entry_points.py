"""The library names the end-to-end benchmark looks up.

``benchmarks/e2e`` solves and simulates through keyword switches, and
its tracer wraps module-level functions and class attributes by name
(``vars(owner)[name]``).  A renamed keyword, a resolver the solver
reaches under another name, or a hook moved to another class breaks
the benchmark, not the code it measures.  These tests pin each such
name, so that the break shows in this suite first.
"""

import pickle

import pytest

import repro.core.runner as runner
import repro.experiments.bench as bench
import repro.experiments.parallel as parallel
import repro.metrics.report as report
import repro.simulation.executor as executor
from repro import cli
from repro.core import AlgorithmVX, AlgorithmW, TrivialAssignment
from repro.core.runner import solve_write_all
from repro.experiments.backends.local import PoolBackend
from repro.experiments.cache import ResultCache
from repro.faults import registry
from repro.perf.phases import PhaseCounters
from repro.pram.dispatch import DispatchModel
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.vectorized import HAVE_NUMPY, VectorProgram, VectorWindow
from repro.simulation import RobustSimulator
from repro.simulation.programs import prefix_sum_program
from tests.faults.test_adversary_vocabulary import BY_NAME

#: The lane switches the workloads pass: the reference lane's three off
#: switches and the auto lane's ``vectorized="auto"``.
LANE_KEYWORDS = {
    "fast_path": False,
    "fast_forward": False,
    "compiled": False,
    "vectorized": "auto",
}


def simulate(**kwargs):
    return RobustSimulator(p=2, algorithm=AlgorithmVX(), **kwargs).execute(
        prefix_sum_program(4), [1, 2, 3, 4]
    )


@pytest.mark.parametrize("keyword", [*LANE_KEYWORDS, "phase_counters"])
def test_solve_write_all_takes_the_harness_keyword(keyword):
    value = LANE_KEYWORDS.get(keyword, PhaseCounters())
    result = solve_write_all(TrivialAssignment(), 64, 8, **{keyword: value})
    assert result.solved


@pytest.mark.parametrize("keyword", LANE_KEYWORDS)
def test_robust_simulator_takes_the_harness_keyword(keyword):
    result = simulate(**{keyword: LANE_KEYWORDS[keyword]})
    assert result.solved
    assert result.memory == [1, 3, 6, 10]


@pytest.mark.parametrize("name", ["resolve_kernel", "resolve_vectorized"])
@pytest.mark.parametrize("module", [runner, executor],
                         ids=["runner", "executor"])
def test_entry_point_calls_the_module_level_resolver(monkeypatch, module,
                                                     name):
    # The tracer times the resolvers by replacing these module globals:
    # each entry point must look them up there on every run.
    calls = []
    real = vars(module)[name]

    def record(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    if module is runner:
        assert solve_write_all(AlgorithmW(), 64, 8, vectorized="auto").solved
    else:
        assert simulate(vectorized="auto").solved
    assert calls


#: Every other name the tracer wraps (or ``run.py`` imports), with the
#: class or module it reads it from by ``vars(owner)[name]``.
TRACED_NAMES = [
    (VectorProgram, "begin_window"),
    (VectorWindow, "resume"),
    (VectorWindow, "flush"),
    (VectorWindow, "close"),
    (DispatchModel, "prefer_vector"),
    (PoolBackend, "__init__"),
    (PoolBackend, "collect"),
    (ResultCache, "load"),
    (ResultCache, "store"),
    (ResultCache, "write_checkpoint"),
    (parallel, "point_key"),
    (bench, "run_sweep_parallel"),
    (bench, "scenario_section"),
    (bench, "bench_report"),
    (cli, "main"),
    (RobustSimulator, "execute"),
    (Machine, "__init__"),
    (Machine, "load_program"),
    (Machine, "run"),
    (Machine, "step"),
    (SharedMemory, "__init__"),
    (SharedMemory, "sync_cells"),
    (SharedMemory, "replace_cells"),
    (runner, "verify_solution"),
    (report, "environment_section"),
]


@pytest.mark.parametrize(
    "owner, name", TRACED_NAMES,
    ids=[f"{getattr(owner, '__name__', owner)}.{name}"
         for owner, name in TRACED_NAMES],
)
def test_traced_hook_is_defined_on_its_class(owner, name):
    assert callable(vars(owner)[name])


@pytest.mark.slow
@pytest.mark.parametrize("owner, name", [
    (parallel, "point_key"),
    (bench, "run_sweep_parallel"),
    (bench, "scenario_section"),
    (bench, "bench_report"),
    (PoolBackend, "collect"),
], ids=["point_key", "run_sweep_parallel", "scenario_section",
        "bench_report", "PoolBackend.collect"])
def test_bench_run_calls_the_traced_name(monkeypatch, tmp_path, owner, name):
    # The tracer times these by replacing the name on its owner, so a
    # pooled bench run must look each one up there when it runs.
    calls = []
    real = vars(owner)[name]

    def record(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    report_, _ = bench.run_benchmarks(
        ["R1_static_proc"], workers=2, cache_dir=str(tmp_path / "cache"),
    )
    assert report_["totals"]["claims_failed"] == 0
    assert calls


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector programs need numpy")
def test_shipped_vector_programs_define_run_quiet():
    # Importing the module registers the subclasses whose run_quiet the
    # tracer wraps; each must override the base class's.
    import repro.core.vector_kernels as vector_kernels

    programs = [
        program for program in VectorProgram.__subclasses__()
        if program.__module__ == vector_kernels.__name__
    ]
    assert set(programs) == {
        vector_kernels.TrivialVector, vector_kernels.WVector
    }
    for program in programs:
        assert program.run_quiet is not VectorProgram.run_quiet, program


@pytest.mark.parametrize("name", registry.names())
def test_registry_builds_each_name_from_its_seed_alone(name):
    # The workloads build `registry.build(name, seed=seed)`: `dense`
    # runs every adversary on its defaults, and `seed_independent`
    # compares those pickles across seeds.
    for seed in range(5):
        assert pickle.dumps(registry.build(name, seed=seed)) == \
            pickle.dumps(BY_NAME[name](seed, 0.1, 0.3)), (name, seed)
