"""Model-field comparison of two ``BENCH_*.json`` reports.

The model-level outputs of a benchmark point — ``solved``, ``S``,
``S'``, ``|F|``, ``ticks`` — are deterministic functions of the
algorithm and the failure pattern, identical on every lane, backend
and host, so any difference between a baseline and a candidate report
is a semantics change and is always an **error**.  Wall-clock is not
compared: it belongs to the end-to-end benchmark (``benchmarks/e2e``).

This is the engine behind ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Deterministic model-level fields that must match exactly.
MODEL_FIELDS = ("solved", "S", "S_prime", "F", "ticks")

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


@dataclass(frozen=True)
class Finding:
    """One comparison outcome worth reporting."""

    severity: str  # "error" | "info"
    kind: str  # "model-mismatch" | "missing-point" | "sweep-missing" | ...
    key: PointKey
    detail: str

    def render(self) -> str:
        scenario, sweep, n, p, seed = self.key
        where = f"{scenario}:{sweep}"
        if n:  # a point; scenario- and sweep-level keys carry N=0
            where += f" (N={n}, P={p}, seed={seed})"
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
    def ok(self) -> bool:
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
            lines.append(f"  {len(self.errors)} error(s)")
        return "\n".join(lines)


def compare_reports(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
) -> RegressionReport:
    """Diff the model fields of ``candidate`` against ``baseline``.

    * a baseline scenario's ``adversaries`` list names an adversary
      absent from :mod:`repro.faults.registry` → one named
      ``model-tag-missing`` **error** per name — the baseline measured
      a fault model this build no longer provides, so its points are
      unreproducible by construction; scenarios without the key skip
      the check;
    * a baseline scenario entirely absent from the candidate → one
      ``scenario-missing`` **error** naming the scenario;
    * a baseline sweep absent from the candidate's scenario → one
      ``sweep-missing`` **error** naming the sweep;
    * a baseline point absent from a sweep the candidate has →
      ``missing-point`` **error** (coverage lost);
    * any :data:`MODEL_FIELDS` difference → ``model-mismatch``
      **error** (the simulation itself changed);
    * candidate-only points → ``new-point`` **info** (new coverage).
    """
    report = RegressionReport(
        baseline_tag=str(baseline.get("tag", "?")),
        candidate_tag=str(candidate.get("tag", "?")),
    )
    baseline_points = _index_points(baseline)
    candidate_points = _index_points(candidate)

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

    candidate_tags = {
        scenario["tag"] for scenario in candidate.get("scenarios", [])
    }
    candidate_sweeps = {
        (scenario["tag"], sweep["name"])
        for scenario in candidate.get("scenarios", [])
        for sweep in scenario.get("sweeps", [])
    }
    lost = set()  # (tag, "*") or (tag, sweep), each reported once
    for scenario in baseline.get("scenarios", []):
        tag = scenario["tag"]
        if tag not in candidate_tags:
            lost.add((tag, "*"))
            report.findings.append(Finding(
                severity="error", kind="scenario-missing",
                key=(tag, "*", 0, 0, 0),
                detail=(
                    f"scenario {tag!r} missing from candidate report "
                    f"{report.candidate_tag!r}"
                ),
            ))
            continue
        for sweep in scenario.get("sweeps", []):
            if (tag, sweep["name"]) in candidate_sweeps:
                continue
            lost.add((tag, sweep["name"]))
            report.findings.append(Finding(
                severity="error", kind="sweep-missing",
                key=(tag, sweep["name"], 0, 0, 0),
                detail=(
                    f"sweep {sweep['name']!r} of scenario {tag!r} missing "
                    f"from candidate report {report.candidate_tag!r}"
                ),
            ))

    for key, base_record in sorted(baseline_points.items()):
        if (key[0], "*") in lost or key[:2] in lost:
            continue  # already reported once for the scenario or sweep
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

    for key in sorted(set(candidate_points) - set(baseline_points)):
        report.findings.append(Finding(
            severity="info", kind="new-point", key=key,
            detail="absent from baseline (new coverage)",
        ))
    return report
