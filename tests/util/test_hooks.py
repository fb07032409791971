"""The one trust rule for promise hooks, through every hook that uses it.

``quiet_until`` promises something about ``decide``;
``compiled_program`` and ``vectorized_program`` promise something about
``program``.  Each route that consults a hook must give the same
answer for the same four ways of declaring it.
"""

import pytest

from repro.core import AlgorithmX, solve_write_all
from repro.faults import (
    FailureBudgetAdversary,
    NoFailures,
    UnionAdversary,
    quiet_horizon,
)
from repro.faults.base import QUIET_FOREVER
from repro.pram.compiled import resolve_kernel
from repro.pram.failures import Decision
from repro.pram.machine import Machine
from repro.pram.memory import SharedMemory
from repro.pram.vectorized import HAVE_NUMPY, resolve_vectorized
from repro.util.hooks import trusted_hook

#: What every test hook returns: a horizon far past the asked tick, and
#: a stand-in for a kernel factory or vector program.
MARK = 1000


def _promised(self, *args):
    return Decision.none()


def _hook(self, *args):
    return MARK


class Proxy:
    """A delegating proxy: every missing name is read from ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def owner_class(hook, promised):
    """A class that defines the promised method and its hook together."""
    return type("Owner", (), {promised: _promised, hook: _hook})


def declared_on_instance(hook, promised):
    obj = type("Plain", (), {promised: _promised})()
    setattr(obj, hook, lambda *args: MARK)
    return obj


def declared_by_defining_class(hook, promised):
    return owner_class(hook, promised)()


def inherited_past_override(hook, promised):
    return type("Override", (owner_class(hook, promised),),
                {promised: _promised})()


def through_getattr(hook, promised):
    return Proxy(owner_class(hook, promised)())


#: (case, what builds the object, trusted?)
CASES = [
    ("instance", declared_on_instance, True),
    ("defining-class", declared_by_defining_class, True),
    ("inherited-past-override", inherited_past_override, False),
    ("getattr-only", through_getattr, False),
]


def horizon_via_quiet_horizon(obj):
    return quiet_horizon(obj, 5) == MARK


def horizon_via_machine(obj):
    machine = Machine(num_processors=1, memory=SharedMemory(1), adversary=obj)
    return machine._event_horizon() == MARK


def kernel_via_resolve_kernel(obj):
    return resolve_kernel(obj, None, None) == MARK


def vector_via_resolve_vectorized(obj):
    return resolve_vectorized(obj, None, None, vectorized=True) == MARK


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="resolve_vectorized installs nothing without numpy"
)

#: (route, hook, promised method, consult) — every consumer of the rule.
ROUTES = [
    pytest.param("quiet_until", "decide", horizon_via_quiet_horizon,
                 id="quiet_horizon"),
    pytest.param("quiet_until", "decide", horizon_via_machine,
                 id="machine"),
    pytest.param("compiled_program", "program", kernel_via_resolve_kernel,
                 id="resolve_kernel"),
    pytest.param("vectorized_program", "program",
                 vector_via_resolve_vectorized, id="resolve_vectorized",
                 marks=needs_numpy),
]


@pytest.mark.parametrize("case, build, trusted", CASES,
                         ids=[case for case, _, _ in CASES])
@pytest.mark.parametrize("hook, promised, consult", ROUTES)
def test_every_route_applies_the_one_rule(hook, promised, consult, case,
                                          build, trusted):
    obj = build(hook, promised)
    assert consult(obj) is trusted
    assert (trusted_hook(obj, hook, promised) is not None) is trusted


class CountingNoFailures(NoFailures):
    """NoFailures that counts its ``decide`` calls and keeps the
    never-acting horizon on the class that overrides ``decide``."""

    def __init__(self):
        self.calls = 0

    def decide(self, view):
        self.calls += 1
        return Decision.none()

    def quiet_until(self, tick):
        return QUIET_FOREVER


@pytest.mark.parametrize("wrap", [
    lambda adversary: adversary,
    lambda adversary: UnionAdversary([adversary]),
    lambda adversary: FailureBudgetAdversary(adversary, 4),
], ids=["direct", "union", "budget"])
def test_wrappers_do_not_trust_a_proxy_the_machine_would_not(wrap):
    # The proxy reaches quiet_until only through __getattr__, so its
    # promise is not trusted: the machine consults it every observable
    # tick, and a wrapper must not promise quiet on its behalf.
    direct = CountingNoFailures()
    assert solve_write_all(AlgorithmX(), 64, 8, adversary=Proxy(direct)).solved
    wrapped = CountingNoFailures()
    result = solve_write_all(AlgorithmX(), 64, 8,
                             adversary=wrap(Proxy(wrapped)))
    assert result.solved
    assert direct.calls > 0
    assert wrapped.calls == direct.calls
