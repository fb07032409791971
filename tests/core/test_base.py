"""Tests for the algorithm base-class helpers."""

from repro.core.base import (
    BaseLayout,
    WriteAllAlgorithm,
    default_tasks,
    done_predicate,
)
from repro.core.iterative import decode_pair
from repro.core.tasks import TrivialTasks
from repro.pram.memory import MemoryReader, SharedMemory


class TestDonePredicate:
    def layout(self):
        return BaseLayout(n=4, p=2, x_base=1, size=6)

    def test_false_until_all_written(self):
        memory = SharedMemory(6)
        predicate = done_predicate(self.layout())
        reader = MemoryReader(memory)
        assert not predicate(reader)
        for index in range(4):
            memory.poke(1 + index, 1)
        assert predicate(reader)

    def test_partial_is_false(self):
        memory = SharedMemory(6, initial=[9, 1, 1, 1, 0, 0])
        assert not done_predicate(self.layout())(MemoryReader(memory))

    def test_offset_respected(self):
        memory = SharedMemory(6, initial=[0, 1, 1, 1, 1, 0])
        assert done_predicate(self.layout())(MemoryReader(memory))


class TestDefaults:
    def test_default_tasks_is_trivial(self):
        tasks = default_tasks(None)
        assert isinstance(tasks, TrivialTasks)
        custom = TrivialTasks()
        assert default_tasks(custom) is custom

    def test_base_class_flags(self):
        assert WriteAllAlgorithm.fault_tolerant
        assert WriteAllAlgorithm.terminates_under_restarts
        assert not WriteAllAlgorithm.requires_snapshot


class TestDecodePair:
    def test_matching_tags_sum(self):
        mult = 17
        values = (3 * mult + 5, 3 * mult + 2)
        assert decode_pair(values, mult, 3) == 7

    def test_stale_tags_decode_to_zero(self):
        mult = 17
        values = (2 * mult + 5, 3 * mult + 2)
        assert decode_pair(values, mult, 3) == 2
        assert decode_pair(values, mult, 2) == 5
        assert decode_pair((0, 0), mult, 1) == 0
