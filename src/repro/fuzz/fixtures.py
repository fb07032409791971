"""Replayable JSON fixtures for fuzz failures.

A fixture captures everything needed to re-execute one divergent
(program, initial memory, adversary, lane, p) point: the shrunk
program when the shrinker succeeded (the original otherwise), the
adversary registry draw, and the ideal run's expected memory.  Fixtures
land in ``tests/fuzz/fixtures/`` and ``tests/fuzz/test_fixtures.py``
replays every one on every CI run — a failure found once is guarded
forever.

The file name embeds a content hash, so re-finding the same minimal
reproduction is idempotent and two different failures cannot collide.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.fuzz.generator import GeneratedProgram
from repro.simulation.classify import ideal_run

#: Schema tag; bump on incompatible layout changes.
FIXTURE_FORMAT = "repro-fuzz-fixture/1"


def fixture_payload(failure) -> Dict[str, object]:
    """The JSON payload for a :class:`~repro.fuzz.driver.FuzzFailure`.

    Prefers the shrunk program/initial when present; the ideal run is
    recomputed for whichever pair is stored, so the fixture is
    self-consistent.
    """
    program = failure.shrunk_program or failure.program
    initial = (failure.shrunk_initial
               if failure.shrunk_program is not None else failure.initial)
    return {
        "format": FIXTURE_FORMAT,
        "kind": failure.kind,
        "iteration": failure.iteration,
        "lane": failure.lane,
        # Every lane the detecting run covered (--lanes selection);
        # replays re-check all of them.  Older fixtures lack the key
        # and replay just their failing lane.
        "lanes": list(failure.run_lanes) or [failure.lane],
        "p": failure.p,
        "adversary": failure.adversary.to_json(),
        "program": program.to_json(),
        "initial": list(initial),
        "expected": ideal_run(program.to_sim_program(), initial),
        "note": failure.describe(),
    }


def dump_fixture(directory, failure) -> pathlib.Path:
    """Write ``failure``'s fixture under ``directory``; return its path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = fixture_payload(failure)
    text = json.dumps(payload, indent=2, sort_keys=True)
    stamp = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    path = directory / f"fuzz-{stamp}.json"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def load_fixtures(directory) -> List[Tuple[pathlib.Path, Dict[str, object]]]:
    """All ``fuzz-*.json`` fixtures under ``directory``, sorted by name."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    fixtures = []
    for path in sorted(directory.glob("fuzz-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("format") != FIXTURE_FORMAT:
            raise ValueError(
                f"{path}: unknown fixture format "
                f"{payload.get('format')!r} (expected {FIXTURE_FORMAT})"
            )
        fixtures.append((path, payload))
    return fixtures


@dataclass
class ReplayResult:
    """Outcome of re-executing a fixture against the current code."""

    ok: bool
    solved: bool
    expected: List[int]
    observed: List[int]
    problems: List[str]


def replay_fixture(payload: Dict[str, object]) -> ReplayResult:
    """Re-execute a fixture point; ok iff the divergence is gone.

    The stored ``expected`` memory is cross-checked against a fresh
    ideal run first: if opcode semantics drifted since the
    fixture was written, the replay fails loudly instead of silently
    testing the wrong claim.  Every lane the detecting run covered (the
    ``lanes`` key; pre-lane-registry fixtures store only the failing
    ``lane``) is replayed.  A lane the registry lacks is a
    ``ValueError`` naming it, raised before anything runs.
    """
    from repro.fuzz.driver import AdversaryDraw, check_lanes, execute_lane

    program = GeneratedProgram.from_json(payload["program"])
    initial = [int(value) for value in payload["initial"]]
    problems: List[str] = []
    expected = ideal_run(program.to_sim_program(), initial)
    if expected != list(payload["expected"]):
        problems.append(
            "stored expectation differs from a fresh ideal run — opcode "
            "semantics drifted; regenerate the fixture"
        )
    primary = str(payload["lane"])
    lanes = [str(lane) for lane in payload.get("lanes", [primary])]
    if primary not in lanes:
        lanes.insert(0, primary)
    check_lanes(lanes)
    adversary = AdversaryDraw.from_json(payload["adversary"])
    p = int(payload["p"])
    observed: List[int] = []
    solved = True
    for lane in lanes:
        result = execute_lane(program, initial, lane, adversary, p)
        if lane == primary:
            observed = list(result.memory)
        if not result.solved:
            solved = False
            problems.append(
                f"lane {lane!r}: robust execution did not solve the instance"
            )
        if result.memory != expected:
            problems.append(
                f"lane {lane!r}: robust execution still diverges from "
                "the ideal run"
            )
    return ReplayResult(
        ok=not problems,
        solved=solved,
        expected=expected,
        observed=observed,
        problems=problems,
    )
