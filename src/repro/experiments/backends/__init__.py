"""Where the parallel sweep engine runs attempts off this process.

A point runs inline (:func:`repro.experiments.parallel.run_inline`)
when ``workers <= 1``, and on one local :class:`PoolBackend` when
``workers > 1``; results are bit-identical either way.
"""

from repro.experiments.backends.local import PoolBackend

__all__ = ["PoolBackend"]
