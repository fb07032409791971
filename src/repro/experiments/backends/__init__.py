"""Executor backends for the parallel sweep engine.

``serial`` executes inline in this process and ``pool`` in a local
process pool; both produce bit-identical results.  See
:mod:`repro.experiments.backends.base` for the protocol.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.experiments.backends.base import AttemptResult, Backend
from repro.experiments.backends.local import PoolBackend, SerialBackend

#: Accepted ``--backend`` spellings.
BACKEND_NAMES = ("serial", "pool")


def resolve_backend(
    backend,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    chaos=None,
    max_pool_restarts: int = 3,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    backoff_seed: int = 0,
) -> Tuple[Backend, bool]:
    """Turn an engine-level backend request into a live Backend.

    ``backend`` may be ``None`` (``workers <= 1`` is serial, more is a
    local pool), one of :data:`BACKEND_NAMES`, or an already-constructed
    :class:`Backend`.  Returns ``(backend, owns)`` — ``owns`` tells the
    caller whether it should close the backend when the sweep ends.
    """
    if isinstance(backend, Backend):
        return backend, False
    if backend is None:
        backend = "serial" if workers is None or workers <= 1 else "pool"
    if not isinstance(backend, str):
        raise TypeError(
            f"backend must be None, a string, or a Backend; "
            f"got {type(backend).__name__}"
        )
    if backend == "serial":
        return SerialBackend(timeout=timeout, chaos=chaos), True
    if backend == "pool":
        return PoolBackend(
            workers=workers if workers is not None else 2,
            timeout=timeout, chaos=chaos,
            max_pool_restarts=max_pool_restarts,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
            backoff_seed=backoff_seed,
        ), True
    raise ValueError(
        f"unknown backend {backend!r}: expected one of "
        f"{', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "AttemptResult",
    "Backend",
    "BACKEND_NAMES",
    "PoolBackend",
    "SerialBackend",
    "resolve_backend",
]
