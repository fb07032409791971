"""Declarative experiment sweeps over the Write-All algorithms.

The benchmark harness hard-codes each of the paper's experiments; this
package provides the general machinery for *new* questions: sweep
instance sizes, processor counts, adversaries and seeds; aggregate the
paper's measures per configuration (worst case over seeds, per
Definition 2.3); fit growth exponents; export CSV.

Example::

    from repro.experiments import SweepSpec, run_sweep
    from repro.core import AlgorithmX
    from repro.faults import registry

    spec = SweepSpec(
        name="x-under-churn",
        algorithm=AlgorithmX,
        sizes=[64, 128, 256],
        processors=lambda n: n,
        adversary=registry.spec("random", fail=0.1, restart_prob=0.3),
        seeds=range(5),
    )
    result = run_sweep(spec)
    print(result.table())
    print(result.fitted_exponent())

A sweep's adversary is data: a registry name plus keyword parameters
(:func:`repro.faults.registry.spec`), built afresh with each point's
seed.  Large sweeps go through the parallel engine instead — same
results, fanned out over worker processes with on-disk caching and
resume::

    from repro.experiments import run_sweep_parallel

    result = run_sweep_parallel(spec, workers=4, cache_dir=".sweep-cache")
    print(result.stats.hit_rate)

The worker count alone chooses where points run: inline for
``workers <= 1``, on one local process pool for more, with
bit-identical results.

See :mod:`repro.experiments.parallel` (the engine),
:mod:`repro.experiments.backends` (the process pool),
:mod:`repro.experiments.cache` (content-hashed result store),
:mod:`repro.experiments.chaos` (deterministic fault injection for the
engine itself) and :mod:`repro.experiments.bench` (the benchmark
scenario registry).
"""

from repro.experiments.spec import SweepSpec
from repro.experiments.runner import (
    RunPoint,
    SweepResult,
    run_one_point,
    run_sweep,
)
from repro.experiments.backends import PoolBackend
from repro.experiments.cache import ResultCache, fingerprint, point_key
from repro.experiments.chaos import ChaosPolicy, run_soak
from repro.experiments.parallel import (
    EtaEstimator,
    ParallelSweepResult,
    PointFailure,
    PointMeta,
    PointSpec,
    SweepStats,
    expand_spec,
    run_sweep_parallel,
)

__all__ = [
    "ChaosPolicy",
    "EtaEstimator",
    "ParallelSweepResult",
    "PointFailure",
    "PointMeta",
    "PointSpec",
    "PoolBackend",
    "ResultCache",
    "RunPoint",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "expand_spec",
    "fingerprint",
    "point_key",
    "run_one_point",
    "run_soak",
    "run_sweep",
    "run_sweep_parallel",
]
