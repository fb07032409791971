"""A8 — adaptive dispatch on the small sizes where forced vec lost.

PR 7's vectorized lane loses to the scalar compiled lane on
short-window/small-P runs (X@512 under sched-sparse ran ~0.3x).  The
``--lane auto`` cost model must notice and stay scalar there — and
because both lanes are bit-identical by the differential contract, the
paper-model outputs (S, S', |F|, ticks) of an auto run must equal the
scalar run's exactly on every point.  This benchmark asserts that
model identity on the registry's small-size grid; the wall-clock side
(auto >= 0.95x scalar) is gated by the committed
``BENCH_adaptive_perf.json`` baseline in CI.
"""

from _support import emit, once

from repro.core import solve_write_all
from repro.experiments.bench import get_scenario
from repro.metrics.tables import render_table
from repro.pram.lanes import LANES

# Grid constants come from the driver's scenario registry so the
# pytest benchmark and `repro bench` measure the same sweep.
SCENARIO = get_scenario("A8_adaptive_smallsize")
# Specs come in (scalar, auto) pairs per algorithm label.
PAIRS = [
    (SCENARIO.specs[i], SCENARIO.specs[i + 1])
    for i in range(0, len(SCENARIO.specs), 2)
]


def run_sweep():
    rows = []
    for scalar_spec, auto_spec in PAIRS:
        assert scalar_spec.lane == "fast"
        assert auto_spec.lane == "auto"
        label = scalar_spec.name.split("@", 1)[0]
        for n in scalar_spec.sizes:
            p = scalar_spec.processors_for(n)
            for seed in scalar_spec.seeds:
                outcomes = {}
                for mode, spec in (("scalar", scalar_spec),
                                   ("auto", auto_spec)):
                    result = solve_write_all(
                        spec.algorithm(), n, p,
                        adversary=spec.adversary_for(seed),
                        max_ticks=spec.max_ticks,
                        **LANES[spec.lane].solver_kwargs(),
                    )
                    assert result.solved
                    outcomes[mode] = (
                        result.completed_work, result.charged_work,
                        result.pattern_size, result.ledger.ticks,
                    )
                assert outcomes["auto"] == outcomes["scalar"], (
                    f"adaptive dispatch changed the model for {label} "
                    f"at N={n}, seed={seed}: "
                    f"{outcomes['auto']} != {outcomes['scalar']}"
                )
                s, s_prime, pattern, ticks = outcomes["auto"]
                rows.append([label, n, p, seed, ticks, s, s_prime, pattern])
    return rows


def test_auto_lane_is_model_invisible_at_small_sizes(benchmark):
    rows = once(benchmark, run_sweep)
    table = render_table(
        ["algo", "N", "P", "seed", "ticks", "S", "S'", "|F|"],
        rows,
        title="A8  Small sizes, sparse schedule — auto/scalar agree on "
              "every point",
    )
    emit("A8_adaptive_smallsize", table)
    assert len(rows) == len(PAIRS)
