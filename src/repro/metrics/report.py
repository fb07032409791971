"""Machine-readable benchmark reports (the ``BENCH_<tag>.json`` schema).

The one parseable artifact of a benchmark run: the measured points,
the engine's accounting and, for registry scenarios, each paper claim's
measured value next to its bound.  This module assembles (and
validates) it from engine results.  It is
deliberately duck-typed — it reads ``points`` / ``stats`` / ``meta`` /
``failures`` attributes off whatever sweep result it is handed — so the
metrics layer does not import the experiments layer.

Schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "tag": "<run tag>",
      "created_unix": <float>,
      "workers": <int>,
      "environment": {"python":..,"python_build":..,"platform":..,
                      "cpu_count":..,"cpu_governor":..,"cpu_turbo":..,
                      "load_avg_1min":..,"numpy":..},  # optional;
                      # null where the host does not expose a field
      "scenarios": [
        {
          "tag": "E1_thrashing",
          "title": "...",
          "source": "repro/experiments/bench.py",
          "wall_s": <float>,
          "cache": {"hits": n, "executed": n, "hit_rate": x, "failed": n},
          "sweeps": [
            {
              "name": "X/thrashing",
              "points": [
                {"n":..,"p":..,"seed":..,"solved":..,"S":..,"S_prime":..,
                 "F":..,"sigma":..,"ticks":..,"wall_s":..,"cached":..}
              ],
              "failures": [
                {"n":..,"p":..,"seed":..,"kind":..,"attempts":..,
                 "message":..}
              ],
              "stats": {"retries":..,"timeouts":..,"crashes":..,
                        "pool_restarts":..,"degraded_serial":..,
                        "cache_corrupt":..,
                        "injected":{..}}  # optional
            }
          ],
          "claims": [  # optional
            {"id": "E1.completed_exponent", "statement": "...",
             "measured": <number or null>, "op": "<", "bound": 1.4,
             "ok": true}
          ]
        }
      ],
      "totals": {"points": n, "executed": n, "cache_hits": n,
                 "failed": n, "retries": n, "timeouts": n,
                 "pool_restarts": n,
                 "degraded_serial": b, "cache_corrupt": n, "wall_s": x,
                 "claims": n, "claims_failed": n}  # claims*: optional
    }

A claim holds when ``measured <op> bound``; ``measured`` is null when a
quarantined point left the scenario's series incomplete, and such a
claim reads ``ok: false``.  Reports written before claims existed omit
both ``claims`` keys and still validate.

The per-sweep ``stats`` object (and the recovery totals) surface the
engine's recovery accounting — reports written before they existed
still validate; consumers must treat them as optional.

A bench run is one engine run over every selected sweep, so its
times are read from one clock that starts with the run: a scenario's
``wall_s`` is the seconds from the run's start until its last point
settled, and ``totals.wall_s`` is the run's wall clock, the largest
scenario ``wall_s`` (scenarios overlap, so their walls do not add up).
The pool counters — ``pool_restarts`` and ``degraded_serial`` —
belong to the run, not to a sweep: the engine records them once, on
the run's first sweep, so the scenario and total sums count each
once.  The same goes
for ``environment``: an audit of the host that produced the numbers
(interpreter, platform, CPU count, numpy version or ``null`` when the
extra is absent), so wall-clock comparisons across reports can tell a
perf change from a host change.

S, S' and |F| are the paper's measures (completed work, charged work,
pattern size); ``sigma = S / (N + |F|)``; ``ticks`` is parallel time in
machine ticks; ``wall_s`` is host wall-clock, 0.0 for cached points.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Dict, List

SCHEMA = "repro-bench/1"


def _read_sysfs(path: str) -> Any:
    """One stripped line from a sysfs file, or ``None`` when unreadable
    (non-Linux hosts, containers that mask /sys, missing drivers)."""
    try:
        with open(path) as handle:
            return handle.readline().strip() or None
    except OSError:
        return None


def _cpu_governor() -> Any:
    """The cpufreq scaling governor, or ``None`` where unexposed."""
    return _read_sysfs(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
    )


def _cpu_turbo() -> Any:
    """Whether turbo/boost is enabled: True/False, ``None`` unknown."""
    no_turbo = _read_sysfs("/sys/devices/system/cpu/intel_pstate/no_turbo")
    if no_turbo is not None:
        return no_turbo == "0"  # intel_pstate exposes the inverse
    boost = _read_sysfs("/sys/devices/system/cpu/cpufreq/boost")
    if boost is not None:
        return boost == "1"
    return None


def _load_avg_1min() -> Any:
    """The 1-minute load average, or ``None`` where unavailable."""
    try:
        return round(os.getloadavg()[0], 3)
    except (OSError, AttributeError):
        return None


def environment_section() -> Dict[str, Any]:
    """Audit of the host producing a report (the ``environment`` key).

    ``numpy`` is the installed version string, or ``None`` when the
    optional extra is absent — so a report records which lanes could
    have run at all.  ``cpu_governor``/``cpu_turbo``/``load_avg_1min``
    capture the frequency-scaling state and ambient load at report
    time (``None`` where the host does not expose them): two reports
    with the same code but different governors or a loaded machine are
    not comparable wall-clock-wise, and now the artifact says so.
    """
    try:
        import numpy
        numpy_version: Any = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_governor": _cpu_governor(),
        "cpu_turbo": _cpu_turbo(),
        "load_avg_1min": _load_avg_1min(),
        "numpy": numpy_version,
    }


def point_record(point, elapsed_s: float = 0.0,
                 cached: bool = False) -> Dict[str, Any]:
    """One RunPoint as a JSON-ready record."""
    return {
        "n": point.n, "p": point.p, "seed": point.seed,
        "solved": point.solved,
        "S": point.completed_work,
        "S_prime": point.charged_work,
        "F": point.pattern_size,
        "sigma": point.overhead_ratio,
        "ticks": point.parallel_time,
        "wall_s": round(elapsed_s, 6),
        "cached": cached,
    }


def sweep_section(result) -> Dict[str, Any]:
    """One engine result (``ParallelSweepResult``) as a JSON section."""
    meta = list(getattr(result, "meta", []))
    records = []
    for position, point in enumerate(result.points):
        if position < len(meta):
            records.append(point_record(
                point,
                elapsed_s=meta[position].elapsed_s,
                cached=meta[position].cached,
            ))
        else:
            records.append(point_record(point))
    failures = [
        {
            "n": failure.n, "p": failure.p, "seed": failure.seed,
            "kind": failure.kind, "attempts": failure.attempts,
            "message": str(getattr(failure, "message", ""))[:500],
        }
        for failure in getattr(result, "failures", [])
    ]
    section = {
        "name": result.spec.name,
        "points": records,
        "failures": failures,
    }
    stats = getattr(result, "stats", None)
    if stats is not None:
        # Engine accounting per sweep, so recovery events (retries,
        # quarantines, pool restarts, corrupt cache entries, injected
        # chaos faults) cannot vanish from the artifact.
        section["stats"] = {
            "total": getattr(stats, "total", len(records)),
            "executed": getattr(stats, "executed", 0),
            "cache_hits": getattr(stats, "cache_hits", 0),
            "timeouts": getattr(stats, "timeouts", 0),
            "retries": getattr(stats, "retries", 0),
            "failed": getattr(stats, "failed", 0),
            "crashes": getattr(stats, "crashes", 0),
            "pool_restarts": getattr(stats, "pool_restarts", 0),
            "degraded_serial": bool(getattr(stats, "degraded_serial",
                                            False)),
            "cache_corrupt": getattr(stats, "cache_corrupt", 0),
            "injected": dict(getattr(stats, "injected", {}) or {}),
        }
    return section


def scenario_section(tag: str, title: str, source: str,
                     results: List[Any], wall_s: float,
                     adversaries: Any = (),
                     claims: Any = ()) -> Dict[str, Any]:
    """One scenario's JSON section.

    ``adversaries`` optionally names the registry adversaries
    (:mod:`repro.faults.registry`) the scenario exercises; when
    non-empty it is recorded so the regression checker can verify the
    names still resolve (``model-tag-missing``).  ``claims`` optionally
    carries the scenario's checked claim records.  Reports written
    before either key existed simply omit it.
    """
    hits = sum(getattr(r.stats, "cache_hits", 0) for r in results)
    executed = sum(getattr(r.stats, "executed", 0) for r in results)
    failed = sum(getattr(r.stats, "failed", 0) for r in results)
    total = hits + executed + failed
    section = {
        "tag": tag,
        "title": title,
        "source": source,
        "wall_s": round(wall_s, 6),
        "cache": {
            "hits": hits,
            "executed": executed,
            "failed": failed,
            "hit_rate": round(hits / total, 6) if total else 0.0,
            "retries": sum(getattr(r.stats, "retries", 0)
                           for r in results),
            "timeouts": sum(getattr(r.stats, "timeouts", 0)
                            for r in results),
            "pool_restarts": sum(getattr(r.stats, "pool_restarts", 0)
                                 for r in results),
            "cache_corrupt": sum(getattr(r.stats, "cache_corrupt", 0)
                                 for r in results),
        },
        "sweeps": [sweep_section(result) for result in results],
    }
    if adversaries:
        section["adversaries"] = [str(name) for name in adversaries]
    if claims:
        section["claims"] = list(claims)
    return section


def bench_report(tag: str, scenarios: List[Dict[str, Any]],
                 workers: int) -> Dict[str, Any]:
    """Assemble the top-level report from scenario sections."""
    sweeps = [sweep for scenario in scenarios for sweep in scenario["sweeps"]]
    claims = [claim for scenario in scenarios
              for claim in scenario.get("claims", [])]
    totals = {
        "points": sum(len(sweep["points"]) for sweep in sweeps),
        "executed": sum(s["cache"]["executed"] for s in scenarios),
        "cache_hits": sum(s["cache"]["hits"] for s in scenarios),
        "failed": sum(s["cache"]["failed"] for s in scenarios),
        "retries": sum(s["cache"].get("retries", 0) for s in scenarios),
        "timeouts": sum(s["cache"].get("timeouts", 0) for s in scenarios),
        "pool_restarts": sum(
            s["cache"].get("pool_restarts", 0) for s in scenarios
        ),
        "degraded_serial": any(
            sweep.get("stats", {}).get("degraded_serial", False)
            for sweep in sweeps
        ),
        "cache_corrupt": sum(
            s["cache"].get("cache_corrupt", 0) for s in scenarios
        ),
        # One run, one clock: scenarios overlap, so the run's wall is
        # the latest scenario's, not their sum.
        "wall_s": round(max((s["wall_s"] for s in scenarios), default=0.0), 6),
        "claims": len(claims),
        "claims_failed": sum(not claim["ok"] for claim in claims),
    }
    return {
        "schema": SCHEMA,
        "tag": tag,
        "created_unix": time.time(),
        "workers": workers,
        "environment": environment_section(),
        "scenarios": scenarios,
        "totals": totals,
    }


_POINT_KEYS = {
    "n", "p", "seed", "solved", "S", "S_prime", "F", "sigma", "ticks",
    "wall_s", "cached",
}


_CLAIM_KEYS = {"id", "statement", "measured", "op", "bound", "ok"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_claim(claim: Any) -> None:
    """One checked-claim record (optional since claims joined the
    registry)."""
    if not isinstance(claim, dict) or _CLAIM_KEYS - set(claim):
        raise ValueError(f"claim records need keys {sorted(_CLAIM_KEYS)}")
    if not isinstance(claim["ok"], bool):
        raise ValueError(f"claim {claim['id']!r}: ok must be a boolean")
    if not _is_number(claim["bound"]) or not (
        claim["measured"] is None or _is_number(claim["measured"])
    ):
        raise ValueError(
            f"claim {claim['id']!r}: bound and measured must be numbers "
            f"(measured may be null)"
        )


def validate_bench_report(report: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``report`` matches ``repro-bench/1``.

    Used by tests and by consumers that ingest foreign report files.
    """
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError(f"not a {SCHEMA} report")
    for key in ("tag", "created_unix", "workers", "scenarios", "totals"):
        if key not in report:
            raise ValueError(f"missing top-level key {key!r}")
    if not isinstance(report["scenarios"], list):
        raise ValueError("scenarios must be a list")
    for scenario in report["scenarios"]:
        for key in ("tag", "title", "source", "wall_s", "cache", "sweeps"):
            if key not in scenario:
                raise ValueError(
                    f"scenario {scenario.get('tag', '?')!r} missing {key!r}"
                )
        if "adversaries" in scenario:
            # Optional since the fault-frontier scenarios; names the
            # registry adversaries the scenario exercises.
            names = scenario["adversaries"]
            if not isinstance(names, list) or not all(
                isinstance(name, str) and name for name in names
            ):
                raise ValueError(
                    "scenario adversaries must be a list of names"
                )
        for claim in scenario.get("claims", []):
            _validate_claim(claim)
        for sweep in scenario["sweeps"]:
            if "name" not in sweep or "points" not in sweep:
                raise ValueError("sweep sections need name and points")
            if "stats" in sweep and not isinstance(sweep["stats"], dict):
                raise ValueError("sweep stats must be an object")
            for record in sweep["points"]:
                missing = _POINT_KEYS - set(record)
                if missing:
                    raise ValueError(
                        f"point record missing keys {sorted(missing)}"
                    )
    for key in ("claims", "claims_failed"):
        count = report["totals"].get(key, 0)
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"totals {key} must be a count, got {count!r}")
    if "environment" in report:
        # Optional since PR 8; older reports simply omit the audit.
        environment = report["environment"]
        if not isinstance(environment, dict):
            raise ValueError("environment must be an object")
        for key in ("python", "platform", "cpu_count", "numpy"):
            if key not in environment:
                raise ValueError(f"environment missing key {key!r}")
        # Governor/turbo/load joined the audit later; older reports
        # omit them, and on hosts that do not expose the state they
        # are recorded as null.
        if "cpu_governor" in environment:
            governor = environment["cpu_governor"]
            if governor is not None and not isinstance(governor, str):
                raise ValueError("cpu_governor must be a string or null")
        if "cpu_turbo" in environment:
            turbo = environment["cpu_turbo"]
            if turbo is not None and not isinstance(turbo, bool):
                raise ValueError("cpu_turbo must be a boolean or null")
        if "load_avg_1min" in environment:
            load = environment["load_avg_1min"]
            if load is not None and (
                not isinstance(load, (int, float)) or isinstance(load, bool)
            ):
                raise ValueError("load_avg_1min must be a number or null")


def dump_report(report: Dict[str, Any], path: str) -> None:
    validate_bench_report(report)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    validate_bench_report(report)
    return report
