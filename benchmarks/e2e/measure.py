"""Host-speed normalization and sample summaries shared by the e2e runner.

Wall time on a shared host swings by up to 1.8x within seconds while
nothing in this program changes: other tenants take the CPU, and the
guest sees no steal time, so CPU time swings the same way.  Timed
regions therefore run under a :class:`HostMeter`, which samples a
fixed ~30 µs interpreter loop (:func:`probe`) every 10 ms of process
CPU time from a ``SIGPROF`` handler.  The region is reported in
*reference-speed seconds*, ``wall * PROBE_REF_S / mean(samples)``:
what it would have taken had the host run the probe at its reference
speed throughout.  The raw wall is kept beside it in every result.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

#: :func:`probe` time on the 2-core host that produced the committed
#: baselines (py3.11.7) when it was uncontended (its 10th percentile),
#: so normalized seconds read as seconds on that host.
PROBE_REF_S = 32e-6

#: Process CPU seconds between two samples.
SAMPLE_INTERVAL_S = 0.01


def probe() -> float:
    """Seconds one fixed interpreter loop takes right now (about 30 µs).

    Plain integer arithmetic in the interpreter.  Of the jobs tried
    (small-object allocation, method calls, generator sends, numpy, and
    mixes of these), its slowdown under host contention tracked that of
    the workloads' ops most closely, with the least noise of its own.
    """
    start = perf_counter()
    total = 0
    for value in range(600):
        total += (value * 7) & 15
    # `total` anchors the loop against being optimized away.
    return perf_counter() - start + (total & 0)


class HostMeter:
    """Samples host speed while the ``with`` body runs (main thread only)."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostMeter":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self.samples.append(probe())
        signal.setitimer(
            signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.samples.append(probe())

    def mean_probe_s(self) -> float:
        return statistics.fmean(self.samples)

    def normalized(self, wall: float) -> float:
        """``wall`` in reference-speed seconds."""
        return normalized(wall, self.mean_probe_s())


def normalized(wall: float, probe_s: float) -> float:
    """``wall`` in reference-speed seconds, given the mean probe time."""
    return wall * PROBE_REF_S / probe_s


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and IQR share of ``values``.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); with fewer than two samples they collapse to the value.
    """
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "value": median,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
    }
