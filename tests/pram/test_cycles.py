"""Unit tests for the update-cycle protocol types."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.pram.cycles import (
    SNAPSHOT,
    Cycle,
    Write,
    noop_cycle,
    read_cycle,
    snapshot_cycle,
    write_cycle,
)
from repro.pram.errors import ProgramError


class TestCycleBasics:
    def test_static_writes(self):
        cycle = Cycle(writes=(Write(1, 5),))
        assert cycle.materialize_writes(()) == (Write(1, 5),)

    def test_computed_writes(self):
        cycle = Cycle(reads=(0, 1), writes=lambda v: (Write(2, v[0] + v[1]),))
        assert cycle.materialize_writes((3, 4)) == (Write(2, 7),)

    def test_non_write_output_rejected(self):
        cycle = Cycle(writes=lambda v: ((1, 2),))
        with pytest.raises(ProgramError, match="non-Write"):
            cycle.materialize_writes(())

    def test_read_specs_static(self):
        assert Cycle(reads=(3, 4)).read_specs() == (3, 4)

    def test_read_specs_dependent(self):
        spec = lambda so_far: so_far[0] + 1
        cycle = Cycle(reads=(0, spec))
        assert cycle.read_specs() == (0, spec)

    def test_bad_reads_rejected(self):
        with pytest.raises(ProgramError):
            Cycle(reads=[1, 2]).read_specs()  # list, not tuple


class TestSnapshot:
    def test_marker(self):
        cycle = snapshot_cycle(lambda values: ())
        assert cycle.is_snapshot
        assert cycle.reads == SNAPSHOT
        assert cycle.read_specs() == ()

    def test_regular_cycle_is_not_snapshot(self):
        assert not Cycle(reads=(0,)).is_snapshot


class TestHelpers:
    def test_read_cycle(self):
        cycle = read_cycle(1, 2, label="poll")
        assert cycle.reads == (1, 2)
        assert cycle.label == "poll"
        assert cycle.materialize_writes((0, 0)) == ()

    def test_write_cycle(self):
        cycle = write_cycle(Write(0, 1), Write(1, 2))
        assert cycle.materialize_writes(()) == (Write(0, 1), Write(1, 2))

    def test_noop_cycle(self):
        cycle = noop_cycle()
        assert cycle.reads == ()
        assert cycle.materialize_writes(()) == ()


class TestRecords:
    """``Write`` and ``Cycle`` keep the interface of frozen dataclasses."""

    def records(self):
        write = Write(3, 7)
        return write, Cycle(reads=(1, 2), writes=(write,), label="step")

    @pytest.mark.parametrize("index, fields", [
        (0, ("address", "value")),
        (1, ("reads", "writes", "label")),
    ])
    def test_fields_cannot_be_assigned_or_deleted(self, index, fields):
        record = self.records()[index]
        for name in fields + ("extra",):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, 0)
        for name in fields:
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        assert self.records()[index] == record

    def test_equality_and_hash_are_by_value(self):
        write, cycle = self.records()
        twin_write, twin_cycle = self.records()
        assert write == twin_write and hash(write) == hash(twin_write)
        assert cycle == twin_cycle and hash(cycle) == hash(twin_cycle)
        assert write != Write(3, 8)
        assert cycle != Cycle(reads=(1, 2), writes=(write,), label="other")
        assert len({write, twin_write, Write(3, 8)}) == 2

    def test_records_never_equal_plain_tuples(self):
        write, cycle = self.records()
        assert write != (3, 7) and (3, 7) != write
        assert cycle != ((1, 2), (write,), "step")
        assert Cycle() != ((), (), "")

    def test_repr_text(self):
        write, cycle = self.records()
        assert repr(write) == "Write(address=3, value=7)"
        assert repr(cycle) == (
            "Cycle(reads=(1, 2), writes=(Write(address=3, value=7),), "
            "label='step')"
        )

    def test_pickle_and_copies_round_trip(self):
        for record in self.records():
            for clone in (
                pickle.loads(pickle.dumps(record)),
                copy.copy(record),
                copy.deepcopy(record),
            ):
                assert type(clone) is type(record)
                assert clone == record

    def test_construction_keeps_signature_and_defaults(self):
        assert Write(address=3, value=7) == Write(3, 7)
        assert Write(3, value=7).value == 7
        default = Cycle()
        assert (default.reads, default.writes, default.label) == ((), (), "")
        write = Write(3, 7)
        assert Cycle((1,), (write,), "l") == Cycle(
            reads=(1,), writes=(write,), label="l"
        )
        assert Cycle(label="idle") == noop_cycle("idle")
        with pytest.raises(TypeError):
            Write(3)
        with pytest.raises(TypeError):
            Cycle((), (), "", "extra")

    def test_tuple_standing_in_for_a_write_is_rejected(self):
        with pytest.raises(ProgramError, match="non-Write"):
            Cycle(writes=((1, 2),)).materialize_writes(())
