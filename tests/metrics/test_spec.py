"""Tests for the sweep specification helpers."""

from repro.core import AlgorithmX
from repro.experiments import SweepSpec
from repro.faults import registry


class TestSweepSpec:
    def make(self, **overrides):
        defaults = dict(
            name="spec-test",
            algorithm=AlgorithmX,
            sizes=[8],
        )
        defaults.update(overrides)
        return SweepSpec(**defaults)

    def test_callable_processors(self):
        spec = self.make(processors=lambda n: n // 2)
        assert spec.processors_for(16) == 8

    def test_constant_processors(self):
        spec = self.make(processors=3)
        assert spec.processors_for(1024) == 3

    def test_processors_floor_at_one(self):
        spec = self.make(processors=lambda n: 0)
        assert spec.processors_for(8) == 1

    def test_no_adversary_means_failure_free(self):
        spec = self.make(adversary=None)
        assert spec.adversary_for(7) is None

    def test_adversary_spec_is_built_with_the_seed(self):
        spec = self.make(adversary=registry.spec("static-proc"))
        assert spec.adversary_for(42).seed == 42
        assert spec.adversary_for(42) is not spec.adversary_for(42)
