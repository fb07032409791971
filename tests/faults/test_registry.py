"""The unified adversary registry: completeness, tags, round-trips.

This suite is the CI completeness gate: every ``Adversary`` subclass in
:mod:`repro.faults` must be placed in a fault model via
:data:`~repro.faults.registry.CLASS_TAGS`, and every registered name
must round-trip through
:func:`repro.experiments.factories.build_named_adversary`.  The other
tests pin the enumeration contract that the CLI, the fuzz driver, and
the sweep factories all derive from.
"""

import importlib
import pkgutil

import pytest

import repro.faults as faults_package
from repro.experiments.factories import (
    NAMED_ADVERSARIES,
    build_named_adversary,
)
from repro.faults import registry
from repro.faults.base import Adversary


def _adversary_subclasses():
    """Every Adversary subclass defined anywhere in repro.faults."""
    found = set()
    for info in pkgutil.iter_modules(faults_package.__path__):
        module = importlib.import_module(f"repro.faults.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Adversary)
                    and obj is not Adversary):
                found.add(obj)
    return found


class TestCompleteness:
    def test_every_adversary_class_declares_a_model(self):
        missing = _adversary_subclasses() - set(registry.CLASS_TAGS)
        assert not missing, (
            f"Adversary subclasses without a CLASS_TAGS row: "
            f"{sorted(cls.__name__ for cls in missing)} — every new "
            f"adversary must declare its fault model in "
            f"repro.faults.registry"
        )

    def test_class_tags_rows_name_real_classes_and_valid_tags(self):
        subclasses = _adversary_subclasses()
        for cls, tags in registry.CLASS_TAGS.items():
            assert cls in subclasses, f"stale CLASS_TAGS row {cls!r}"
            assert tags, f"{cls.__name__} has no model tags"
            assert set(tags) <= set(registry.MODEL_TAGS)

    def test_every_name_round_trips_through_the_factory(self):
        for name in registry.names():
            adversary = build_named_adversary(name, 0.1, 0.3, 0)
            assert isinstance(adversary, Adversary), name
            declared = registry.class_tags_for(type(adversary))
            assert declared is not None, (
                f"{name!r} builds {type(adversary).__name__}, which has "
                f"no CLASS_TAGS row"
            )

    def test_entry_tags_are_consistent_with_the_built_class(self):
        # An entry may narrow its class's placement (a wrapper changes
        # the model) but should never claim a tag its class disowns —
        # except via composition, which CLASS_TAGS can't see; today no
        # entry needs that escape hatch.
        for name in registry.names():
            entry = registry.get(name)
            adversary = entry.build()
            declared = registry.class_tags_for(type(adversary))
            assert set(entry.tags) <= set(declared), name


class TestEnumeration:
    def test_names_are_sorted_and_plentiful(self):
        names = registry.names()
        assert list(names) == sorted(names)
        assert len(names) >= 13
        spanned = {
            tag for name in names for tag in registry.tags_for(name)
        }
        assert len(spanned) >= 4

    def test_named_adversaries_alias_is_the_registry(self):
        assert NAMED_ADVERSARIES == list(registry.names())

    def test_cli_choices_derive_from_the_registry(self):
        from repro.cli import ADVERSARIES

        assert tuple(ADVERSARIES) == registry.names()

    def test_fuzz_draws_are_the_fuzzable_subset_in_order(self):
        from repro.fuzz.driver import ADVERSARY_DRAWS

        assert ADVERSARY_DRAWS == registry.fuzz_names()
        fuzzable = [
            name for name, entry in registry.REGISTRY.items()
            if entry.fuzzable
        ]
        assert list(registry.fuzz_names()) == fuzzable  # registration order
        assert set(fuzzable) <= set(registry.names())

    def test_static_mem_entries_are_not_fuzzable(self):
        # Generated programs have no fault-routing discipline; poisoned
        # cells would make the differential oracle meaningless.
        for name in registry.names_for_tag("static-mem"):
            assert not registry.get(name).fuzzable, name

    def test_names_for_tag(self):
        assert "static-proc" in registry.names_for_tag("static-proc")
        assert "speed-classes" in registry.names_for_tag("hetero-speed")
        assert "random" in registry.names_for_tag("persistent-mem")
        for name in registry.names_for_tag("fail-stop-restart"):
            assert "fail-stop-restart" in registry.tags_for(name)
        with pytest.raises(ValueError, match="unknown model tag"):
            registry.names_for_tag("quantum")

    def test_unknown_name_raises_with_the_vocabulary(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            registry.get("nope")
        with pytest.raises(ValueError, match="known"):
            registry.build("nope")

    def test_duplicate_registration_rejected(self):
        entry = registry.REGISTRY["none"]
        with pytest.raises(ValueError, match="duplicate"):
            registry._register(entry)

    def test_seeded_builders_are_deterministic(self):
        for name in registry.names():
            a = registry.build(name, 0.2, 0.4, seed=9)
            b = registry.build(name, 0.2, 0.4, seed=9)
            assert type(a) is type(b), name
