"""Tolerance-band comparison of two ``BENCH_*.json`` reports.

The model-level outputs of a benchmark point — ``solved``, ``S``,
``S'``, ``|F|``, ``ticks`` — are deterministic, so any difference
between a baseline and a candidate report is a semantics change and is
always an **error**.  Wall-clock per point is noisy and host-dependent,
so it is only flagged (as a perf regression) when the candidate exceeds
the baseline by more than a relative tolerance band, and only for points
slow enough to measure at all.

This is the engine behind ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Deterministic model-level fields that must match exactly.
MODEL_FIELDS = ("solved", "S", "S_prime", "F", "ticks")

#: Points faster than this (seconds) in the baseline are never banded —
#: their wall-clock is dominated by timer noise.
DEFAULT_MIN_WALL_S = 0.01

#: Default relative tolerance: candidate may be up to 2x the baseline
#: before a perf regression is flagged (generous on purpose: CI hosts
#: differ; tighten locally with --wall-tolerance).
DEFAULT_WALL_TOLERANCE = 1.0

PointKey = Tuple[str, str, int, int, int]


def _index_points(report: Dict[str, Any]) -> Dict[PointKey, Dict[str, Any]]:
    points: Dict[PointKey, Dict[str, Any]] = {}
    for scenario in report.get("scenarios", []):
        tag = scenario.get("tag")
        if tag is None:
            raise ValueError(
                f"report {report.get('tag', '?')!r} has a scenario "
                f"without a 'tag' key (titled "
                f"{scenario.get('title', '?')!r})"
            )
        for sweep in scenario.get("sweeps", []):
            name = sweep.get("name")
            if name is None:
                raise ValueError(
                    f"scenario {tag!r} has a sweep without a 'name' key"
                )
            for record in sweep.get("points", []):
                try:
                    key = (tag, name,
                           record["n"], record["p"], record["seed"])
                except KeyError as exc:
                    raise ValueError(
                        f"scenario {tag!r} sweep {name!r} has a point "
                        f"record missing the {exc.args[0]!r} key"
                    ) from None
                points[key] = record
    return points


def _scenario_tags(report: Dict[str, Any]) -> List[str]:
    return [
        scenario.get("tag", "?") for scenario in report.get("scenarios", [])
    ]


def _sweep_lane(name: str) -> str:
    """The lane suffix of a sweep name (``X@sched-sparse/auto`` -> ``auto``).

    Sweep names without a ``/`` (the experiment-driver scenarios) have
    no lane notion; they map to ``""`` and never participate in
    lane-set comparison.
    """
    if "/" not in name:
        return ""
    return name.rsplit("/", 1)[1]


def _lane_sets(points: Dict[PointKey, Dict[str, Any]]) -> Dict[str, set]:
    """Per-scenario set of lane suffixes appearing in the point index."""
    lanes: Dict[str, set] = {}
    for tag, name, _n, _p, _seed in points:
        lane = _sweep_lane(name)
        if lane:
            lanes.setdefault(tag, set()).add(lane)
    return lanes


@dataclass(frozen=True)
class Finding:
    """One comparison outcome worth reporting."""

    severity: str  # "error" | "warn" | "info"
    kind: str  # "model-mismatch" | "missing-point" | "wall-regression" | ...
    key: PointKey
    detail: str

    def render(self) -> str:
        scenario, sweep, n, p, seed = self.key
        where = f"{scenario}:{sweep} (N={n}, P={p}, seed={seed})"
        return f"[{self.severity}] {self.kind} at {where}: {self.detail}"


@dataclass
class RegressionReport:
    """Outcome of comparing a candidate report against a baseline."""

    baseline_tag: str
    candidate_tag: str
    compared: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.warnings

    @property
    def model_ok(self) -> bool:
        """No model-level errors (wall-clock warnings tolerated).

        This is the CI gate: deterministic paper-model fields must match
        exactly on any host, while wall-clock bands are advisory across
        heterogeneous machines.
        """
        return not self.errors

    def render(self) -> str:
        lines = [
            f"compared {self.compared} points: baseline tag "
            f"{self.baseline_tag!r} vs candidate tag {self.candidate_tag!r}"
        ]
        for finding in self.findings:
            lines.append("  " + finding.render())
        if self.ok:
            lines.append("  OK: no regressions")
        else:
            lines.append(
                f"  {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s)"
            )
        return "\n".join(lines)


def compare_reports(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
    min_wall_s: float = DEFAULT_MIN_WALL_S,
) -> RegressionReport:
    """Diff ``candidate`` against ``baseline`` point by point.

    * baseline and candidate both carry a top-level ``backend`` key and
      they differ → one named ``backend-mismatch`` **error** — the two
      reports timed different dispatch fabrics, not different code;
      reports without the key (legacy) skip the check;
    * a baseline scenario's ``adversaries`` list names an adversary
      absent from :mod:`repro.faults.registry` → one named
      ``model-tag-missing`` **error** per name — the baseline measured
      a fault model this build no longer provides, so its points are
      unreproducible by construction; scenarios without the key
      (legacy reports) skip the check;
    * a baseline scenario entirely absent from the candidate → one
      **error** naming the scenario (instead of one error per missing
      point, or a raw ``KeyError``);
    * a baseline *lane* (the ``/<mode>`` sweep-name suffix) entirely
      absent from the candidate's scenario → one named
      ``lane-mismatch`` **error** per lane — e.g. comparing a
      ``--lane auto`` baseline against a scalar candidate — instead of
      a wall of per-point missing errors; candidate-only lanes are
      **info** (new coverage, the usual forward-compatible case);
    * a baseline point absent from the candidate → **error** (coverage
      lost);
    * any :data:`MODEL_FIELDS` difference → **error** (the simulation
      itself changed);
    * candidate wall_s above ``baseline * (1 + wall_tolerance)`` on a
      measurable, uncached point → **warn** (perf regression);
    * candidate-only points → **info** (new coverage).
    """
    if wall_tolerance < 0:
        raise ValueError(
            f"wall_tolerance must be >= 0, got {wall_tolerance}"
        )
    report = RegressionReport(
        baseline_tag=str(baseline.get("tag", "?")),
        candidate_tag=str(candidate.get("tag", "?")),
    )
    baseline_points = _index_points(baseline)
    candidate_points = _index_points(candidate)

    base_backend = baseline.get("backend")
    cand_backend = candidate.get("backend")
    if (base_backend is not None and cand_backend is not None
            and base_backend != cand_backend):
        # Model fields are backend-independent, but wall-clock bands
        # across executors (inline vs a process pool) compare
        # dispatch fabrics, not code.  Name the problem instead of
        # emitting spurious wall-regression warnings.
        report.findings.append(Finding(
            severity="error", kind="backend-mismatch",
            key=("*", "*", 0, 0, 0),
            detail=(
                f"baseline ran on backend {base_backend!r}, candidate on "
                f"{cand_backend!r}; wall-clock comparison across backends "
                f"is meaningless — re-run both through the same backend"
            ),
        ))

    from repro.faults import registry as adversary_registry

    known_names = set(adversary_registry.names())
    for scenario in baseline.get("scenarios", []):
        for name in scenario.get("adversaries", []):
            if name in known_names:
                continue
            report.findings.append(Finding(
                severity="error", kind="model-tag-missing",
                key=(scenario.get("tag", "?"), "*", 0, 0, 0),
                detail=(
                    f"baseline scenario references adversary {name!r}, "
                    f"which is absent from the registry — its points "
                    f"cannot be reproduced by this build (known: "
                    f"{sorted(known_names)})"
                ),
            ))

    missing_scenarios = sorted(
        set(_scenario_tags(baseline)) - set(_scenario_tags(candidate))
    )
    for tag in missing_scenarios:
        report.findings.append(Finding(
            severity="error", kind="scenario-missing",
            key=(tag, "*", 0, 0, 0),
            detail=(
                f"scenario {tag!r} missing from candidate report "
                f"{report.candidate_tag!r}"
            ),
        ))

    baseline_lanes = _lane_sets(baseline_points)
    candidate_lanes = _lane_sets(candidate_points)
    missing_lanes = set()
    for tag, lanes in sorted(baseline_lanes.items()):
        if tag in missing_scenarios:
            continue
        for lane in sorted(lanes - candidate_lanes.get(tag, set())):
            missing_lanes.add((tag, lane))
            report.findings.append(Finding(
                severity="error", kind="lane-mismatch",
                key=(tag, f"*/{lane}", 0, 0, 0),
                detail=(
                    f"baseline has lane {lane!r} in scenario {tag!r}, "
                    f"candidate has "
                    f"{sorted(candidate_lanes.get(tag, set())) or 'none'} "
                    f"— was the candidate run with a different --lane?"
                ),
            ))
    new_lanes = set()
    for tag, lanes in sorted(candidate_lanes.items()):
        for lane in sorted(lanes - baseline_lanes.get(tag, set())):
            new_lanes.add((tag, lane))
            report.findings.append(Finding(
                severity="info", kind="new-lane",
                key=(tag, f"*/{lane}", 0, 0, 0),
                detail="lane absent from baseline (new coverage)",
            ))

    for key, base_record in sorted(baseline_points.items()):
        if key[0] in missing_scenarios:
            continue  # already reported once at scenario granularity
        if (key[0], _sweep_lane(key[1])) in missing_lanes:
            continue  # already reported once at lane granularity
        cand_record = candidate_points.get(key)
        if cand_record is None:
            report.findings.append(Finding(
                severity="error", kind="missing-point", key=key,
                detail="present in baseline, absent from candidate",
            ))
            continue
        report.compared += 1
        for fld in MODEL_FIELDS:
            if base_record.get(fld) != cand_record.get(fld):
                report.findings.append(Finding(
                    severity="error", kind="model-mismatch", key=key,
                    detail=(
                        f"{fld}: baseline={base_record.get(fld)!r} "
                        f"candidate={cand_record.get(fld)!r}"
                    ),
                ))
        base_wall = float(base_record.get("wall_s", 0.0))
        cand_wall = float(cand_record.get("wall_s", 0.0))
        measurable = (
            base_wall >= min_wall_s
            and not base_record.get("cached", False)
            and not cand_record.get("cached", False)
        )
        if measurable and cand_wall > base_wall * (1.0 + wall_tolerance):
            report.findings.append(Finding(
                severity="warn", kind="wall-regression", key=key,
                detail=(
                    f"wall_s {base_wall:.4f} -> {cand_wall:.4f} "
                    f"({cand_wall / base_wall:.2f}x, tolerance "
                    f"{1.0 + wall_tolerance:.2f}x)"
                ),
            ))

    for key in sorted(set(candidate_points) - set(baseline_points)):
        if (key[0], _sweep_lane(key[1])) in new_lanes:
            continue  # already reported once at lane granularity
        report.findings.append(Finding(
            severity="info", kind="new-point", key=key,
            detail="absent from baseline (new coverage)",
        ))
    return report
