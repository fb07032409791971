"""Paper claims as registry data: the measure helpers and how a
scenario's claims read its results."""

import pytest

from repro.core import AlgorithmX
from repro.experiments.bench import (
    BenchScenario,
    Claim,
    differing,
    exponent,
    flatness,
    pointwise,
    ratio,
    unsolved,
)
from repro.experiments.parallel import ParallelSweepResult, PointFailure
from repro.experiments.runner import RunPoint
from repro.experiments.spec import SweepSpec
from repro.metrics.report import validate_bench_report


def point(n, work, p=None, seed=0, solved=True, ticks=10, pattern=0):
    p = n if p is None else p
    return RunPoint(
        n=n, p=p, seed=seed, solved=solved, completed_work=work,
        charged_work=work, pattern_size=pattern,
        overhead_ratio=work / (n + pattern), parallel_time=ticks,
    )


def holds(measure, op, bound, results):
    return Claim("t.claim", "test", measure, op, bound).check(results)[1]


QUADRATIC = {"sq": [point(n, n * n) for n in (16, 32, 64, 128)]}


class TestMeasures:
    def test_exponent(self):
        assert holds(exponent("sq"), ">", 1.7, QUADRATIC)
        assert not holds(exponent("sq"), "<", 1.4, QUADRATIC)

    def test_exponent_steps_and_worst_case_per_size(self):
        results = {
            "a": [point(16, 16), point(32, 64)],
            "b": [point(16, 32), point(32, 32)],
        }
        # Worst per N: 32 at 16, 64 at 32 -> one doubling, exponent 1.
        assert exponent(("a", "b"), steps=max)(results) == pytest.approx(1.0)
        assert holds(exponent(("a", "b"), steps=max), "<", 1.5, results)
        assert not holds(exponent(("a", "b"), steps=max), "<", 1.0, results)

    def test_exponent_over_processors(self):
        results = {"p": [point(64, 64 * p, p=p) for p in (1, 4, 16)]}
        assert holds(exponent("p", over="p"), "<", 1.1, results)
        assert not holds(exponent("p", over="p"), "<", 0.9, results)

    def test_ratio(self):
        term = lambda pt: pt.n * pt.n
        assert holds(ratio("sq", term), "<=", 1.0, QUADRATIC)
        assert not holds(ratio("sq", term), "<", 1.0, QUADRATIC)
        assert holds(ratio("sq", field="parallel_time", worst=min),
                     "==", 10, QUADRATIC)

    def test_flatness(self):
        assert holds(flatness("sq", lambda pt: pt.n * pt.n), "<=", 1.0,
                     QUADRATIC)
        assert not holds(flatness("sq", lambda pt: pt.n), "<=", 3.0,
                         QUADRATIC)

    def test_pointwise_pairs_by_size(self):
        results = {
            "small": [point(16, 10), point(32, 30)],
            "large": [point(16, 20), point(32, 40), point(64, 1)],
        }
        assert pointwise("small", "large")(results) == pytest.approx(0.75)
        assert holds(pointwise("small", "large"), "<", 1.0, results)
        assert not holds(pointwise("small", "large", worst=min), ">=", 0.8,
                         results)
        # small <= 0.4 * large + 0.1 N fails at N=16: 10 > 8 + 1.6.
        assert not holds(pointwise("small", "large", scale=0.4, slack=0.1),
                         "<=", 1.0, results)

    def test_differing(self):
        same = {"a": QUADRATIC["sq"], "b": list(QUADRATIC["sq"])}
        assert holds(differing("a", "b"), "==", 0, same)
        changed = dict(same, b=[point(16, 256, ticks=11)] + same["b"][1:])
        assert differing("a", "b")(changed) == 1
        assert not holds(differing("a", "b"), "==", 0, changed)
        shorter = dict(same, b=same["b"][:2])
        assert differing("a", "b")(shorter) == 2

    def test_unsolved(self):
        results = {"s": [point(16, 1), point(32, 1, solved=False)]}
        assert holds(unsolved("s"), "==", 1, results)
        assert not holds(unsolved("s"), "==", 0, results)


def sweep_result(name, points, failures=()):
    spec = SweepSpec(name=name, algorithm=AlgorithmX, sizes=(16, 32))
    return ParallelSweepResult(spec=spec, points=list(points),
                               failures=list(failures))


SCENARIO = BenchScenario(
    tag="T1_test", title="test",
    specs=(SweepSpec(name="sq", algorithm=AlgorithmX, sizes=(16, 32)),
           SweepSpec(name="dnf", algorithm=AlgorithmX, sizes=(16,))),
    claims=(Claim("T1.exponent", "S ~ N^2", exponent("sq"), ">", 1.7),),
    dnf=("dnf",),
)


class TestScenarioClaims:
    def test_all_hold(self):
        records = SCENARIO.evaluate([
            sweep_result("sq", [point(16, 256), point(32, 1024)]),
            sweep_result("dnf", [point(16, 1, solved=False)]),
        ])
        assert [r["id"] for r in records] == ["T1.solved", "T1.exponent"]
        assert all(r["ok"] for r in records)
        assert records[1]["measured"] == pytest.approx(2.0)
        assert records[1]["op"] == ">" and records[1]["bound"] == 1.7

    def test_unsolved_point_fails_the_solved_claim(self):
        records = SCENARIO.evaluate([
            sweep_result("sq", [point(16, 256), point(32, 1024,
                                                      solved=False)]),
            sweep_result("dnf", [point(16, 1, solved=False)]),
        ])
        assert [r["ok"] for r in records] == [False, True]
        assert records[0]["measured"] == 1

    def test_quarantined_point_fails_every_claim(self):
        failure = PointFailure(index=1, n=32, p=32, seed=0, kind="crash",
                               attempts=2, message="worker died")
        records = SCENARIO.evaluate([
            sweep_result("sq", [point(16, 256)], failures=[failure]),
            sweep_result("dnf", [point(16, 1, solved=False)]),
        ])
        assert [(r["measured"], r["ok"]) for r in records] == \
            [(None, False), (None, False)]


def test_report_validates_claim_records():
    record = {"id": "T1.x", "statement": "s", "measured": 1.5, "op": "<",
              "bound": 2.0, "ok": True}
    scenario = {"tag": "T1", "title": "t", "source": "s", "wall_s": 0.0,
                "cache": {}, "sweeps": [], "claims": [record]}

    def report(claims, totals=None):
        return {"schema": "repro-bench/1", "tag": "x", "created_unix": 0.0,
                "workers": 1, "scenarios": [dict(scenario, claims=claims)],
                "totals": totals or {"claims": 1, "claims_failed": 0}}

    validate_bench_report(report([record]))
    validate_bench_report(report([dict(record, measured=None, ok=False)]))
    for broken in ({"id": "T1.x"}, dict(record, ok="yes"),
                   dict(record, measured="1.5"), dict(record, bound=None)):
        with pytest.raises(ValueError, match="claim"):
            validate_bench_report(report([broken]))
    with pytest.raises(ValueError, match="claims_failed"):
        validate_bench_report(report([record], {"claims_failed": -1}))
