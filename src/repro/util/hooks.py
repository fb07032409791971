"""The one trust rule for promise hooks.

A *promise hook* is a method that promises something about another
method of the same object: an adversary's ``quiet_until`` promises
that ``decide`` stays quiet up to a horizon, and an algorithm's
``compiled_program`` and ``vectorized_program`` promise to compute
what ``program`` does.  A subclass that overrides the promised method
while inheriting the hook would break the promise without noticing,
so a hook is trusted only where it was written next to the method it
speaks for.
"""

from __future__ import annotations

from typing import Callable, Optional


def trusted_hook(obj: object, hook: str, promised: str) -> Optional[Callable]:
    """``obj``'s ``hook`` method, or None if its promise is not trusted.

    The hook is trusted when the instance's own ``__dict__`` declares
    it, or when a class dict declares it at or below the class that
    defines ``promised`` (the first of the two names met walking the
    MRO is the hook).  It is not trusted when the instance declares
    ``promised`` itself, when a subclass overrides ``promised`` below
    the hook's class, or when no instance or class dict declares it at
    all (a hook reached only through ``__getattr__``, such as a
    delegating proxy's, promises nothing about the proxy's own
    ``promised``).
    """
    instance_vars = getattr(obj, "__dict__", {})
    if hook in instance_vars:
        return getattr(obj, hook, None)
    if promised in instance_vars:
        return None
    for klass in type(obj).__mro__:
        if hook in vars(klass):
            return getattr(obj, hook, None)
        if promised in vars(klass):
            return None
    return None
