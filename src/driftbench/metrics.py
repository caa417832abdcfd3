"""Scalar summaries of an accuracy matrix and their aggregation across seeds."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .protocol import AccuracyMatrix, ProtocolKind

METRIC_NAMES = ("accuracy", "backward_transfer", "forward_transfer", "in_domain", "next_domain")


@dataclass(frozen=True)
class MetricReport:
    """Five scalar metrics of one matrix; entries touching absent cells are None.

    Streaming matrices expose only ``next_domain`` and ``forward_transfer``.
    """

    protocol: ProtocolKind
    accuracy: float | None
    backward_transfer: float | None
    forward_transfer: float | None
    in_domain: float | None
    next_domain: float | None


@dataclass(frozen=True)
class AggregateReport:
    """Per-metric sample mean and population standard deviation over seeds."""

    protocol: ProtocolKind
    n_seeds: int
    means: dict[str, float]
    stds: dict[str, float]


def _mean_over(cells: np.ndarray, spans: Iterable[tuple[int, int]]) -> float | None:
    """Mean of the cells ``cells[i, lo:hi]`` over each row ``i``'s span ``(lo, hi)``, read as row views."""
    rows = [cells[i, lo:hi] for i, (lo, hi) in enumerate(spans)]
    # Any absent (NaN) cell in the region makes the metric absent, never zero-filled;
    # it makes its row's sum NaN, since present cells are finite.
    if any(math.isnan(row.sum()) for row in rows):
        return None
    # fsum is correctly rounded, so the mean does not depend on how the cells are fed to it.
    return math.fsum(itertools.chain.from_iterable(row.tolist() for row in rows)) / sum(row.size for row in rows)


def compute_metrics(matrix: AccuracyMatrix) -> MetricReport:
    """Summarize a matrix into the five triangle averages.

    Accuracy averages the diagonal plus everything below it; backward and
    forward transfer average the strict lower and upper triangles; in-domain is
    the diagonal mean and next-domain the superdiagonal mean.
    """
    n, cells = matrix.n, matrix.cells
    return MetricReport(
        protocol=matrix.protocol,
        accuracy=_mean_over(cells, ((0, i + 1) for i in range(n))),
        backward_transfer=_mean_over(cells, ((0, i) for i in range(n))),
        forward_transfer=_mean_over(cells, ((i + 1, n) for i in range(n))),
        in_domain=_mean_over(cells, ((i, i + 1) for i in range(n))),
        next_domain=_mean_over(cells, ((i + 1, i + 2) for i in range(n))),
    )


def aggregate(reports: Sequence[MetricReport]) -> AggregateReport:
    """Combine per-seed reports into mean and population std per present metric."""
    if not reports:
        raise ValueError("need at least one report")
    protocol = reports[0].protocol
    if any(r.protocol is not protocol for r in reports):
        raise ValueError("cannot aggregate reports from mixed protocols")
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for name in METRIC_NAMES:
        values = [getattr(r, name) for r in reports]
        if any(v is None for v in values):
            continue
        arr = np.array(values, dtype=float)
        means[name] = float(arr.mean())
        stds[name] = float(arr.std())
    return AggregateReport(protocol=protocol, n_seeds=len(reports), means=means, stds=stds)


def report_text(agg: AggregateReport) -> str:
    """Key-value rendering of an aggregate report, one metric per line."""
    lines = [f"protocol={agg.protocol.value}", f"n_seeds={agg.n_seeds}"]
    for name in METRIC_NAMES:
        if name in agg.means:
            lines.append(f"{name}_mean={agg.means[name]:.6f}")
            lines.append(f"{name}_std={agg.stds[name]:.6f}")
    return "\n".join(lines) + "\n"


def csv_rows(cell_name: str, agg: AggregateReport) -> list[str]:
    """One ``cell,metric,mean,std`` row per reported metric."""
    return [
        f"{cell_name},{name},{agg.means[name]:.6f},{agg.stds[name]:.6f}"
        for name in METRIC_NAMES
        if name in agg.means
    ]
