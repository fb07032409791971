"""Replay every committed fuzz fixture — failures found once are
guarded forever.

Any mismatch the fuzzer ever catches lands here as a ``fuzz-*.json``
file (``repro fuzz`` writes them to ``tests/fuzz/fixtures`` by
default), and from then on every CI run re-executes the minimal
reproduction and asserts the divergence stays fixed.
"""

import pathlib

import pytest

from repro.fuzz.driver import LANES, FuzzFailure, draw_adversary_spec
from repro.fuzz.fixtures import (
    FIXTURE_FORMAT,
    dump_fixture,
    fixture_payload,
    load_fixtures,
    replay_fixture,
)
from repro.fuzz.generator import generate_initial_memory, generate_program
from repro.simulation.classify import ideal_run

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"

COMMITTED = load_fixtures(FIXTURE_DIR)


def _synthetic_failure(seed=0):
    program = generate_program(seed)
    initial = generate_initial_memory(seed, program.memory_size)
    return FuzzFailure(
        kind="mismatch",
        iteration=0,
        lane="fast",
        pass_index=0,
        adversary=draw_adversary_spec(seed, 0),
        p=2,
        program=program,
        initial=list(initial),
        expected=ideal_run(program.to_sim_program(), initial),
        observed=None,
    )


class TestCommittedFixtures:
    def test_corpus_is_present(self):
        # The corpus ships with at least one shrunk reproduction (from
        # the planted-bug mutation run); an empty directory usually
        # means a bad checkout or an overzealous clean.
        assert COMMITTED, f"no fuzz fixtures found under {FIXTURE_DIR}"

    @pytest.mark.parametrize(
        "path,payload", COMMITTED,
        ids=[path.name for path, _ in COMMITTED],
    )
    def test_fixture_replays_clean(self, path, payload):
        replay = replay_fixture(payload)
        assert replay.ok, (
            f"{path.name}: {'; '.join(replay.problems)} "
            f"(expected {replay.expected}, observed {replay.observed})"
        )


class TestFixtureMechanics:
    def test_dump_load_roundtrip(self, tmp_path):
        failure = _synthetic_failure()
        path = dump_fixture(tmp_path, failure)
        loaded = load_fixtures(tmp_path)
        assert [p for p, _ in loaded] == [path]
        payload = loaded[0][1]
        assert payload["format"] == FIXTURE_FORMAT
        assert payload["lane"] == "fast"
        assert payload["expected"] == failure.expected

    def test_dump_is_idempotent(self, tmp_path):
        failure = _synthetic_failure()
        first = dump_fixture(tmp_path, failure)
        second = dump_fixture(tmp_path, failure)
        assert first == second
        assert len(load_fixtures(tmp_path)) == 1

    def test_shrunk_pair_preferred(self, tmp_path):
        failure = _synthetic_failure()
        failure.shrunk_program = generate_program(1)
        failure.shrunk_initial = generate_initial_memory(
            1, failure.shrunk_program.memory_size
        )
        payload = fixture_payload(failure)
        assert payload["program"] == failure.shrunk_program.to_json()
        assert payload["expected"] == ideal_run(
            failure.shrunk_program.to_sim_program(), failure.shrunk_initial
        )

    def test_unknown_format_rejected(self, tmp_path):
        (tmp_path / "fuzz-bad.json").write_text('{"format": "nope/9"}')
        with pytest.raises(ValueError, match="unknown fixture format"):
            load_fixtures(tmp_path)

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_fixtures(tmp_path / "absent") == []

    def test_replay_detects_oracle_drift(self, tmp_path):
        failure = _synthetic_failure()
        payload = fixture_payload(failure)
        payload["expected"] = [value + 1 for value in payload["expected"]]
        replay = replay_fixture(payload)
        assert not replay.ok
        assert any("drifted" in problem for problem in replay.problems)

    def test_replay_of_sound_fixture_passes(self):
        replay = replay_fixture(fixture_payload(_synthetic_failure()))
        assert replay.ok

    @pytest.mark.parametrize("key, value", [
        ("lane", "bogus"), ("lanes", ["fast", "bogus"]),
    ], ids=["lane", "lanes"])
    def test_replay_names_a_lane_the_registry_lacks(self, key, value):
        payload = fixture_payload(_synthetic_failure())
        payload[key] = value
        with pytest.raises(ValueError, match="unknown lane") as caught:
            replay_fixture(payload)
        message = str(caught.value)
        assert "'bogus'" in message
        assert all(repr(lane) in message for lane in LANES)
