"""E13 — simulator micro-benchmarks (wall-clock, not model work).

These measure the host cost of simulating one processor-tick, which is
what bounds the instance sizes every other experiment can afford.  They
are the only benchmarks here where wall-clock time is the point.
"""

from repro.core import AlgorithmVX, AlgorithmX, solve_write_all
from repro.faults import NoFailures, RandomAdversary


def test_x_failure_free_throughput(benchmark):
    def run():
        return solve_write_all(AlgorithmX(), 256, 64, adversary=NoFailures())

    result = benchmark(run)
    assert result.solved


def test_x_under_churn_throughput(benchmark):
    def run():
        return solve_write_all(
            AlgorithmX(), 128, 128,
            adversary=RandomAdversary(0.1, 0.3, seed=1),
            max_ticks=500_000,
        )

    result = benchmark(run)
    assert result.solved


def test_vx_throughput(benchmark):
    def run():
        return solve_write_all(AlgorithmVX(), 128, 128)

    result = benchmark(run)
    assert result.solved


def test_report_processor_cycle_rate(benchmark):
    """Simulated processor-cycles per wall-clock second, recorded in the
    benchmark's ``extra_info`` (``--benchmark-disable`` times nothing,
    so there is no rate to record)."""

    def run():
        return solve_write_all(
            AlgorithmX(), 256, 256,
            adversary=RandomAdversary(0.05, 0.3, seed=2),
            max_ticks=500_000,
        )

    result = benchmark(run)
    assert result.solved
    if benchmark.stats is not None:
        benchmark.extra_info["cycles_per_second"] = (
            result.charged_work / benchmark.stats.stats.mean
        )
