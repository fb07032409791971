"""Sweep execution, aggregation, and export."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.runner import RunMeasures, measure_write_all
from repro.experiments.spec import SweepSpec
from repro.metrics.fitting import fitted_exponent
from repro.metrics.tables import render_table


@dataclass(frozen=True)
class RunPoint:
    """The paper's measures for one (N, P, seed) run."""

    n: int
    p: int
    seed: int
    solved: bool
    completed_work: int
    charged_work: int
    pattern_size: int
    overhead_ratio: float
    parallel_time: int

    #: CSV column -> attribute, in column order.  ``csv_header``,
    #: ``csv_row`` and ``from_csv_row`` all derive from this single
    #: mapping so the three cannot drift apart.
    _CSV_FIELDS = (
        ("n", "n"), ("p", "p"), ("seed", "seed"), ("solved", "solved"),
        ("S", "completed_work"), ("S_prime", "charged_work"),
        ("F", "pattern_size"), ("sigma", "overhead_ratio"),
        ("ticks", "parallel_time"),
    )

    @staticmethod
    def csv_header() -> List[str]:
        return [column for column, _attr in RunPoint._CSV_FIELDS]

    def csv_row(self) -> List[object]:
        row: List[object] = []
        for _column, attr in self._CSV_FIELDS:
            value = getattr(self, attr)
            if attr == "solved":
                value = int(value)
            elif attr == "overhead_ratio":
                value = repr(value)  # full precision: round-trips exactly
            row.append(value)
        return row

    @classmethod
    def from_csv_row(cls, header: Sequence[str], row: Sequence[str]) -> "RunPoint":
        """Parse one exported CSV row back into a ``RunPoint``.

        ``header`` must match :meth:`csv_header` — a mismatch means the
        file was produced by a different schema and is rejected.
        """
        if list(header) != cls.csv_header():
            raise ValueError(
                f"CSV header {list(header)!r} does not match "
                f"{cls.csv_header()!r}"
            )
        values = dict(zip(header, row))
        kwargs: Dict[str, object] = {}
        for column, attr in cls._CSV_FIELDS:
            raw = values[column]
            if attr == "solved":
                kwargs[attr] = bool(int(raw))
            elif attr == "overhead_ratio":
                kwargs[attr] = float(raw)
            else:
                kwargs[attr] = int(raw)
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        return {
            "n": self.n, "p": self.p, "seed": self.seed,
            "solved": self.solved,
            "completed_work": self.completed_work,
            "charged_work": self.charged_work,
            "pattern_size": self.pattern_size,
            "overhead_ratio": self.overhead_ratio,
            "parallel_time": self.parallel_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunPoint":
        return cls(
            n=int(data["n"]), p=int(data["p"]), seed=int(data["seed"]),
            solved=bool(data["solved"]),
            completed_work=int(data["completed_work"]),
            charged_work=int(data["charged_work"]),
            pattern_size=int(data["pattern_size"]),
            overhead_ratio=float(data["overhead_ratio"]),
            parallel_time=int(data["parallel_time"]),
        )

    @classmethod
    def from_measures(cls, measures: RunMeasures, seed: int) -> "RunPoint":
        return cls(
            n=measures.n, p=measures.p, seed=seed, solved=measures.solved,
            completed_work=measures.completed_work,
            charged_work=measures.charged_work,
            pattern_size=measures.pattern_size,
            overhead_ratio=measures.overhead_ratio,
            parallel_time=measures.parallel_time,
        )


@dataclass
class SweepResult:
    """All run points of a sweep plus aggregation helpers."""

    spec: SweepSpec
    points: List[RunPoint]

    def cells(self) -> List[Tuple[int, int]]:
        """The distinct (N, P) cells, in sweep order."""
        seen: Dict[Tuple[int, int], None] = {}
        for point in self.points:
            seen.setdefault((point.n, point.p), None)
        return list(seen)

    def points_at(self, n: int, p: int) -> List[RunPoint]:
        return [pt for pt in self.points if pt.n == n and pt.p == p]

    def worst_work(self, n: int, p: int) -> int:
        """max S over seeds — Definition 2.3's worst case."""
        return max(pt.completed_work for pt in self.points_at(n, p))

    def mean_work(self, n: int, p: int) -> float:
        cell = self.points_at(n, p)
        return sum(pt.completed_work for pt in cell) / len(cell)

    def all_solved(self) -> bool:
        return all(pt.solved for pt in self.points)

    def fitted_exponent(self, worst: bool = True) -> float:
        """Growth exponent of (worst-case) work against N."""
        cells = self.cells()
        sizes = [n for n, _p in cells]
        works = [
            self.worst_work(n, p) if worst else self.mean_work(n, p)
            for n, p in cells
        ]
        return fitted_exponent(sizes, works)

    def table(self) -> str:
        rows = []
        for n, p in self.cells():
            cell = self.points_at(n, p)
            rows.append([
                n, p, len(cell),
                max(pt.completed_work for pt in cell),
                round(sum(pt.completed_work for pt in cell) / len(cell), 1),
                max(pt.pattern_size for pt in cell),
                round(max(pt.overhead_ratio for pt in cell), 3),
                sum(1 for pt in cell if not pt.solved),
            ])
        return render_table(
            ["N", "P", "runs", "S worst", "S mean", "|F| worst",
             "sigma worst", "DNF"],
            rows,
            title=f"sweep: {self.spec.name}",
        )

    def export_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RunPoint.csv_header())
            for point in self.points:
                writer.writerow(point.csv_row())


def run_one_point(
    spec, n: int, p: int, seed: int, measure=measure_write_all
) -> RunPoint:
    """Execute a single sweep point.

    ``spec`` is a :class:`SweepSpec` or the engine's
    :class:`~repro.experiments.parallel.PointSpec`; both carry the
    algorithm, adversary spec, tick budget, fairness window, lane and
    optional ``runner``.  ``measure`` is the default point runner
    (``spec.runner`` overrides it).  Both the serial loop below and the
    parallel engine's workers call this, so a point's result is by
    construction independent of which path executed it.
    """
    if spec.runner is not None:
        measure = spec.runner
    adversary = spec.adversary
    measures = measure(
        spec.algorithm, n, p,
        adversary=None if adversary is None else adversary.build(seed),
        max_ticks=spec.max_ticks,
        fairness_window=spec.fairness_window,
        lane=spec.lane,
    )
    return RunPoint.from_measures(measures, seed=seed)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every (N, seed) run of the sweep."""
    points = [
        run_one_point(spec, n, p, seed) for n, p, seed in spec.points()
    ]
    return SweepResult(spec=spec, points=points)
