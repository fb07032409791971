"""Shared fixtures and helpers for the test suite."""

import contextlib
import dataclasses

import pytest

from repro.core import (
    AccAlgorithm,
    AlgorithmV,
    AlgorithmVX,
    AlgorithmW,
    AlgorithmX,
    SnapshotAlgorithm,
    TrivialAssignment,
)
from repro.pram.dispatch import DispatchModel, set_model
from repro.pram.lanes import LANES

#: The ``auto`` lane's switches, run by :func:`lane_dispatch` with every
#: eligible quiet window sent to the vector program: the leg on which
#: the differential suites run trivial's and W's vector programs at
#: sizes where the calibrated model keeps windows scalar.
FORCED_VEC = dataclasses.replace(LANES["auto"], name="forced-vec")


@contextlib.contextmanager
def vector_windows_forced():
    """Have dispatch pick the vector body for every eligible window.

    A scalar side scaled by 1e9 outweighs any vector cost, so
    ``prefer_vector`` answers yes whenever a window has a running lane.
    """
    set_model(DispatchModel(scale_scalar=1e9))
    try:
        yield
    finally:
        set_model(None)


def lane_dispatch(lane):
    """The dispatch context a test leg runs in."""
    if lane is FORCED_VEC:
        return vector_windows_forced()
    return contextlib.nullcontext()


def fault_tolerant_algorithms():
    """Fresh instances of every fault-tolerant Write-All algorithm."""
    return [
        AlgorithmW(),
        AlgorithmV(),
        AlgorithmX(),
        AlgorithmVX(),
        SnapshotAlgorithm(),
        AccAlgorithm(seed=0),
    ]


def all_algorithms():
    return [TrivialAssignment()] + fault_tolerant_algorithms()


def restart_safe_algorithms():
    """Algorithms that terminate under arbitrary failure/restart patterns."""
    return [AlgorithmX(), AlgorithmVX(), SnapshotAlgorithm()]


@pytest.fixture(params=[a.name for a in all_algorithms()])
def any_algorithm(request):
    lookup = {a.name: a for a in all_algorithms()}
    return lookup[request.param]


@pytest.fixture(params=[a.name for a in fault_tolerant_algorithms()])
def tolerant_algorithm(request):
    lookup = {a.name: a for a in fault_tolerant_algorithms()}
    return lookup[request.param]
