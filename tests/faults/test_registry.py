"""The adversary registry: completeness, tags, parameters.

This suite is the CI completeness gate: every ``Adversary`` subclass in
:mod:`repro.faults` must be placed in a fault model via
:data:`~repro.faults.registry.CLASS_TAGS`, and every registered name
must build an adversary of such a class.  The other tests pin the
enumeration contract that the CLI, the fuzz driver and the bench
scenarios all derive from, and the parameter checks of
:func:`~repro.faults.registry.spec`.
"""

import importlib
import pickle
import pkgutil

import pytest

import repro.faults as faults_package
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
        # The e2e tracer also depends on this: it times `decide` and
        # `quiet_until` on [Adversary, *CLASS_TAGS], so a class missing
        # here would run untimed.
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

    def test_every_name_builds_a_tagged_class(self):
        for name in registry.names():
            adversary = registry.spec(name).build(0)
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

    def test_cli_choices_derive_from_the_registry(self):
        from repro.cli import ADVERSARIES

        assert tuple(ADVERSARIES) == registry.names()

    def test_fuzz_draws_name_registered_entries_once(self):
        # The draw table is the fuzz driver's literal (its order is
        # part of every seeded draw); each name must build here.
        from repro.fuzz.driver import ADVERSARY_DRAWS

        assert len(set(ADVERSARY_DRAWS)) == len(ADVERSARY_DRAWS)
        assert set(ADVERSARY_DRAWS) <= set(registry.names())

    def test_static_mem_entries_are_not_drawn(self):
        # Generated programs have no fault-routing discipline; poisoned
        # cells would make the exclusive-write ideal run meaningless.
        from repro.fuzz.driver import ADVERSARY_DRAWS

        for name in registry.names_for_tag("static-mem"):
            assert name not in ADVERSARY_DRAWS, name

    def test_names_for_tag(self):
        assert "static-proc" in registry.names_for_tag("static-proc")
        assert "speed-classes" in registry.names_for_tag("hetero-speed")
        # The persistent-memory model belongs to the checkpoint runner,
        # whatever adversary drives it, so no entry carries its tag.
        assert registry.names_for_tag("persistent-mem") == ()
        for name in registry.names_for_tag("fail-stop-restart"):
            assert "fail-stop-restart" in registry.tags_for(name)
        with pytest.raises(ValueError, match="unknown model tag"):
            registry.names_for_tag("quantum")

    def test_unknown_name_raises_with_the_vocabulary(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            registry.get("nope")
        with pytest.raises(ValueError, match="known"):
            registry.build("nope")
        with pytest.raises(ValueError, match="unknown adversary 'nope'"):
            registry.spec("nope", fail=0.1)

    def test_duplicate_registration_rejected(self):
        entry = registry.REGISTRY["none"]
        with pytest.raises(ValueError, match="duplicate"):
            registry._register(entry)

    def test_seeded_builders_are_deterministic(self):
        for name in registry.names():
            spec = registry.spec_taking(name, fail=0.2, restart_prob=0.4)
            assert pickle.dumps(spec.build(9)) == pickle.dumps(
                registry.build(name, seed=9, **dict(spec.params))
            ), name


class TestParameters:
    def test_each_entry_declares_its_own_then_the_wrappers(self):
        declared = {name: registry.get(name).parameters()
                    for name in registry.names()}
        wrappers = ("budget", "restarts")
        assert declared == {
            "acc-stalker": wrappers,
            "burst": ("period", "fraction") + wrappers,
            "crash": ("fail",) + wrappers,
            "halving": wrappers,
            "none": wrappers,
            "random": ("fail", "restart_prob") + wrappers,
            "sched-sparse": ("victims",) + wrappers,
            "speed-classes": wrappers,
            "stalker": wrappers,
            "starver": wrappers,
            "static-mem": ("dead_frac",) + wrappers,
            "static-proc": wrappers,
            "thrashing": wrappers,
        }

    def test_unknown_parameter_names_the_entry_and_its_parameters(self):
        with pytest.raises(ValueError) as exc:
            registry.spec("halving", fail=0.3)
        assert str(exc.value) == (
            "adversary 'halving' takes no parameter 'fail'; its "
            "parameters: budget, restarts"
        )
        with pytest.raises(ValueError, match="'crash'.*fail, budget"):
            registry.build("crash", seed=0, restart_prob=0.5)

    @pytest.mark.parametrize("name, params", [
        ("random", {"fail": "0.1"}),
        ("random", {"fail": True}),
        ("burst", {"period": 2.0}),
        ("thrashing", {"budget": 4.0}),
        ("thrashing", {"budget": True}),
        ("halving", {"restarts": 0}),
    ])
    def test_a_value_of_the_wrong_type_raises(self, name, params):
        with pytest.raises(ValueError, match="takes"):
            registry.spec(name, **params)

    def test_specs_are_canonical(self):
        # Defaults spelled out or not, ints for floats, any keyword
        # order: one adversary, one spec (and one cache key).
        assert registry.spec("random", fail=0.1, restart_prob=0.3) == \
            registry.spec("random")
        assert registry.spec("random", restart_prob=0.4, fail=1) == \
            registry.spec("random", fail=1.0, restart_prob=0.4)
        assert registry.spec("random", fail=1).params == (
            ("fail", 1.0),
        )
        assert registry.spec("thrashing", budget=None, restarts=True) == \
            registry.spec("thrashing")

    def test_wrappers_compose_around_the_entry(self):
        from repro.faults import (
            FailureBudgetAdversary,
            HalvingAdversary,
            NoRestartAdversary,
        )

        both = registry.build("halving", seed=0, budget=0, restarts=False)
        assert isinstance(both, FailureBudgetAdversary)
        assert both.budget == 0
        assert isinstance(both.inner, NoRestartAdversary)
        assert isinstance(both.inner.inner, HalvingAdversary)

    def test_specs_pickle_and_rebuild_fresh_adversaries(self):
        spec = registry.spec("random", fail=0.25, budget=64)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec.build(3) is not spec.build(3)
        assert pickle.dumps(spec.build(3)) == pickle.dumps(spec.build(3))

    def test_spec_taking_drops_only_undeclared_parameters(self):
        assert registry.spec_taking("halving", fail=0.3) == \
            registry.spec("halving")
        assert registry.spec_taking(
            "crash", fail=0.3, restart_prob=0.9,
        ) == registry.spec("crash", fail=0.3)
        with pytest.raises(ValueError, match="takes"):
            registry.spec_taking("crash", fail="0.3")
