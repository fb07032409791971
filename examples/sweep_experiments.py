#!/usr/bin/env python3
"""Using the experiment framework: design your own sweep in ten lines.

Sweeps algorithm X across sizes and seeds under two environments and
prints the aggregate tables, fitted growth exponents, and a CSV export.

Usage:  python examples/sweep_experiments.py [csv_path]
"""

import sys

from repro.core import AlgorithmVX, AlgorithmX
from repro.experiments import SweepSpec, run_sweep
from repro.faults import registry


def main() -> None:
    churn = SweepSpec(
        name="X under 10% churn",
        algorithm=AlgorithmX,
        sizes=[32, 64, 128, 256],
        processors=lambda n: n,
        adversary=registry.spec("random", fail=0.1, restart_prob=0.3),
        seeds=range(5),
        max_ticks=2_000_000,
    )
    stalked = SweepSpec(
        name="X stalked (Theorem 4.8)",
        algorithm=AlgorithmX,
        sizes=[32, 64, 128, 256],
        adversary=registry.spec("stalker"),
        seeds=[0],
        max_ticks=20_000_000,
    )
    combined = SweepSpec(
        name="V+X stalked (Theorem 4.9)",
        algorithm=AlgorithmVX,
        sizes=[32, 64, 128],
        adversary=registry.spec("stalker"),
        seeds=[0],
        max_ticks=20_000_000,
    )

    for spec in [churn, stalked, combined]:
        result = run_sweep(spec)
        print(result.table())
        print(f"fitted work exponent: {result.fitted_exponent():.3f}\n")

    if len(sys.argv) > 1:
        result = run_sweep(churn)
        result.export_csv(sys.argv[1])
        print(f"churn sweep exported to {sys.argv[1]}")


if __name__ == "__main__":
    main()
