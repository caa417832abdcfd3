"""Timestamped labeled sample streams: bucketization, splits, synthetic drift, file IO."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np


class FeatureFileError(ValueError):
    """Raised when a feature file is malformed; the message names the offending line."""


class FieldValueError(ValueError):
    """A config dataclass rejected the value of one field: ``field`` fails ``requirement``.

    ``others`` names the other fields a cross-field requirement reads.
    """

    def __init__(self, field: str, requirement: str, others: tuple[str, ...] = ()) -> None:
        super().__init__(f"{field} {requirement}")
        self.field = field
        self.requirement = requirement
        self.others = others


@dataclass(frozen=True, eq=False)
class Sample:
    """One labeled, timestamped feature point.

    ``id`` is unique within a stream, ``timestamp`` is an arbitrary-unit monotone
    sort key, ``features`` is a finite real vector, ``label`` a dense class index.
    """

    id: int
    timestamp: int
    features: np.ndarray
    label: int


@dataclass(frozen=True, eq=False)
class TemporalStream:
    """Time-ordered rows cut into equal buckets: bucket ``t`` is rows ``offsets[t]:offsets[t + 1]``.

    ``x`` is the (n, d) feature matrix and ``y``, ``ids``, ``timestamps`` are
    per-row vectors; ``dropped`` counts the samples left out to equalize buckets.
    """

    x: np.ndarray
    y: np.ndarray
    ids: np.ndarray
    timestamps: np.ndarray
    offsets: np.ndarray
    C: int
    dropped: int = 0

    @property
    def d(self) -> int:
        return int(self.x.shape[1])

    @property
    def n_buckets(self) -> int:
        return len(self.offsets) - 1


@dataclass(frozen=True)
class DriftConfig:
    """Synthetic stream parameters: class means rotate on a circle by ``drift_rate`` radians per bucket."""

    C: int
    d: int
    N: int
    n_per_class: int
    radius: float
    drift_rate: float
    noise: float
    seed: int

    def __post_init__(self) -> None:
        for field in ("C", "N", "n_per_class"):
            if getattr(self, field) < 1:
                raise FieldValueError(field, "must be >= 1")
        if self.d < 2:
            raise FieldValueError("d", "must be >= 2")
        if self.seed < 0:
            raise FieldValueError("seed", "must be >= 0")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise FieldValueError("radius", "must be finite and > 0")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise FieldValueError("noise", "must be finite and > 0")
        if not (math.isfinite(self.drift_rate) and self.drift_rate >= 0):
            raise FieldValueError("drift_rate", "must be finite and >= 0")


def bucket_shape(n_samples: int, n_buckets: int) -> tuple[int, int]:
    """Return (bucket_size, dropped) for partitioning ``n_samples`` into equal buckets."""
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    if n_samples < n_buckets:
        raise ValueError(f"need at least {n_buckets} samples, got {n_samples}")
    size = n_samples // n_buckets
    return size, n_samples - size * n_buckets


def bucketize(
    ids: np.ndarray, timestamps: np.ndarray, x: np.ndarray, y: np.ndarray, n_buckets: int, C: int
) -> TemporalStream:
    """Sort rows by (timestamp, id) and partition them into equal contiguous buckets.

    The trailing ``len(ids) mod n_buckets`` rows are dropped so every bucket
    has identical size; the stream records how many were dropped.  Ties in
    timestamp keep ascending-id order, so the partition is deterministic.
    """
    size, dropped = bucket_shape(len(ids), n_buckets)
    if len(np.unique(ids)) != len(ids):
        raise ValueError("sample ids must be unique within a stream")
    if y.max() >= C:
        raise ValueError(f"label {y.max()} out of range for class_count={C}")
    kept = np.lexsort((ids, timestamps))[: size * n_buckets]
    offsets = np.arange(n_buckets + 1) * size
    return TemporalStream(x[kept], y[kept], ids[kept], timestamps[kept], offsets, C, dropped)


def split_iid(
    rows: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform 2-way partition of one bucket's row indices into (train, test).

    The first ``ceil(train_fraction * len(rows))`` rows of a seeded
    permutation become the train set; identical seeds give identical splits.
    Both sets must be non-empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if len(rows) == 0:
        raise ValueError("cannot split an empty bucket")
    n_train = math.ceil(train_fraction * len(rows))
    if n_train == len(rows):
        raise ValueError(f"train_fraction {train_fraction} leaves no test rows of {len(rows)}")
    rows = np.asarray(rows)
    perm = np.random.default_rng(seed).permutation(len(rows))
    return rows[perm[:n_train]], rows[perm[n_train:]]


def class_means(cfg: DriftConfig, bucket_index: int) -> np.ndarray:
    """Class means for one bucket: radius * (cos, sin) of the rotated class angle, zero-padded to d."""
    means = np.zeros((cfg.C, cfg.d))
    angles = 2.0 * np.pi * np.arange(cfg.C) / cfg.C + bucket_index * cfg.drift_rate
    means[:, 0] = cfg.radius * np.cos(angles)
    means[:, 1] = cfg.radius * np.sin(angles)
    return means


def generate_drift_stream(cfg: DriftConfig) -> TemporalStream:
    """Generate a synthetic drifting stream of Gaussian class clusters.

    Bucket ``t`` draws ``n_per_class`` points per class around means rotated by
    ``t * drift_rate``.  Classes are interleaved by a seeded shuffle within each
    bucket so any contiguous slice is class-balanced on average, mimicking an
    iid upload stream.  Timestamps equal the bucket index and ids are sequential
    in arrival order, so :func:`bucketize` reproduces the same partition.
    Fully deterministic per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    size = cfg.C * cfg.n_per_class
    x = np.empty((cfg.N * size, cfg.d))
    y = np.empty(cfg.N * size, dtype=np.int64)
    labels = np.repeat(np.arange(cfg.C), cfg.n_per_class)
    # The one bucket-sized temporary, refilled for each bucket with the
    # roundings of ``means + noise * sigma``.
    points = np.empty((cfg.C, cfg.n_per_class, cfg.d))
    for t in range(cfg.N):
        rng.standard_normal(out=points)
        points *= cfg.noise
        points += class_means(cfg, t)[:, None, :]
        order = rng.permutation(size)
        bucket = slice(t * size, (t + 1) * size)
        # A permutation is never clipped; mode="raise" would buffer the output.
        np.take(points.reshape(size, cfg.d), order, axis=0, out=x[bucket], mode="clip")
        y[bucket] = labels[order]
    ids, timestamps = np.arange(cfg.N * size), np.repeat(np.arange(cfg.N), size)
    return TemporalStream(x, y, ids, timestamps, np.arange(cfg.N + 1) * size, cfg.C)


def _parse_header(line: str, path: str) -> tuple[int, int]:
    if not line.startswith("#"):
        raise FeatureFileError(f"{path}:1: missing '#d=<d> C=<C>' header")
    parts = line.strip().lstrip("#").split()
    try:
        fields = dict(p.split("=", 1) for p in parts)
        d, c = int(fields["d"]), int(fields["C"])
    except (ValueError, KeyError) as exc:
        raise FeatureFileError(f"{path}:1: expected header '#d=<d> C=<C>', got {line!r}") from exc
    if d < 1 or c < 1:
        raise FeatureFileError(f"{path}:1: d and C must be >= 1")
    return d, c


def checked_norm(vector: np.ndarray) -> float:
    """The L2 norm of a finite vector, as ``np.linalg.norm`` computes it.

    Raises ``ValueError`` when the norm is 0 or its square overflows; numpy
    would return 0 or, with an overflow warning, ``inf``.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("zero vector cannot be normalized")
    if norm == math.inf:
        raise ValueError("squared norm overflows; vector cannot be normalized")
    return norm


def parse_int64(text: str) -> int:
    """``int(text)``, rejecting with ``ValueError`` a value that does not fit in int64."""
    if -(2**63) <= (value := int(text)) < 2**63:
        return value
    raise ValueError(f"integer {text} outside the int64 range")


def parse_records(
    lines: Iterable[str], n_ints: int, k: int, normalize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``i_1<TAB>...<TAB>i_n<TAB>v1,...,vk`` lines into ``(n_ints, rows)`` int64s and a matrix.

    Blank lines are skipped.  The vector fields go to ``np.loadtxt`` and form
    one finite ``(rows, k)`` array; with ``normalize`` set, each row is
    scaled in place to unit L2 norm, ``sqrt(x . x)``, which equals
    ``np.linalg.norm`` bit for bit.  ``n_ints`` must be >= 1.  Raises
    ``ValueError`` on a wrong field count, a non-integer or non-int64 field,
    a vector field ``np.loadtxt`` rejects or without ``k`` values, a non-finite
    value, or a row to normalize that is zero or whose squared norm overflows.
    The error names no line: callers re-read a rejected file line by line.
    """
    columns: list[list[int]] = [[] for _ in range(n_ints)]

    def vector_fields() -> Iterator[str]:
        for line in lines:
            line = line.strip()
            if line:
                *ints, vector = line.split("\t")
                if len(ints) != n_ints:
                    raise ValueError(f"expected {n_ints + 1} tab-separated fields")
                for column, text in zip(columns, ints):
                    column.append(int(text))
                yield vector

    fields = vector_fields()
    first = next(fields, None)
    if first is None:
        return np.empty((n_ints, 0), dtype=np.int64), np.empty((0, k))
    x = np.loadtxt(chain([first], fields), delimiter=",", comments=None, ndmin=2)
    try:
        ints = np.array(columns, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("integer field outside the int64 range") from exc
    if x.shape != (ints.shape[1], k) or not np.isfinite(x).all():
        raise ValueError("malformed vector rows")
    if normalize:
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.vecdot(x, x))
        if not norms.all() or np.isinf(norms).any():
            raise ValueError("zero vector or overflowing squared norm cannot be normalized")
        x /= norms[:, None]
    return ints, x


FeatureArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]


def read_feature_file(path: str | Path, normalize: bool = False) -> FeatureArrays:
    """Read ``id<TAB>timestamp<TAB>label<TAB>f1,...,fd`` records as (ids, timestamps, labels, x, C).

    Three int64 vectors and the ``(rows, d)`` matrix, in file order, and the
    header's class count.  With ``normalize`` set, each row is scaled to unit
    L2 norm; rows that are zero or whose squared norm overflows are rejected.
    Malformed records raise :class:`FeatureFileError` naming the line.
    """
    path = str(path)
    try:
        return _load_feature_rows(path, normalize)
    except ValueError:
        # The line-by-line reader finds the first bad line and names it.
        return _load_feature_lines(path, normalize)


def load_feature_file(path: str | Path, normalize: bool = False) -> list[Sample]:
    """:func:`read_feature_file` as one :class:`Sample` per record; features are rows of one matrix."""
    ids, timestamps, labels, x, _ = read_feature_file(path, normalize)
    return [Sample(*rec) for rec in zip(ids.tolist(), timestamps.tolist(), x, labels.tolist())]


def _load_feature_rows(path: str, normalize: bool) -> FeatureArrays:
    with open(path, encoding="utf-8") as fh:
        d, c = _parse_header(fh.readline(), path)
        (ids, timestamps, labels), x = parse_records(fh, 3, d, normalize)
    if len(ids) and (ids.min() < 0 or labels.min() < 0 or labels.max() >= c):
        raise ValueError("id or label out of range")
    return ids, timestamps, labels, x, c


def _load_feature_lines(path: str, normalize: bool) -> FeatureArrays:
    records: list[tuple[int, int, int]] = []
    rows: list[np.ndarray] = []
    with open(path, encoding="utf-8") as fh:
        d, c = _parse_header(fh.readline(), path)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise FeatureFileError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                sid, ts, label = map(parse_int64, parts[:3])
                feats = np.array([float(v) for v in parts[3].split(",")])
            except ValueError as exc:
                raise FeatureFileError(f"{path}:{lineno}: {exc}") from exc
            if feats.shape != (d,):
                raise FeatureFileError(
                    f"{path}:{lineno}: expected {d} features, got {feats.shape[0]}"
                )
            if not np.all(np.isfinite(feats)):
                raise FeatureFileError(f"{path}:{lineno}: non-finite feature value")
            if sid < 0:
                raise FeatureFileError(f"{path}:{lineno}: id must be non-negative")
            if not 0 <= label < c:
                raise FeatureFileError(f"{path}:{lineno}: label {label} outside [0, {c})")
            if normalize:
                try:
                    feats = feats / checked_norm(feats)
                except ValueError as exc:
                    raise FeatureFileError(f"{path}:{lineno}: {exc}") from exc
            records.append((sid, ts, label))
            rows.append(feats)
    ids, timestamps, labels = np.array(records, dtype=np.int64).reshape(-1, 3).T.copy()
    return ids, timestamps, labels, np.array(rows).reshape(len(rows), d), c


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for writing text so that it holds either its old content or all of the new.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` only when the block exits normally; if the block raises, the
    temporary file is removed and ``path`` is left as it was.  This guards
    against an interrupted process, not against power loss (there is no fsync).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_feature_file(
    path: str | Path, ids: np.ndarray, timestamps: np.ndarray, labels: np.ndarray,
    x: np.ndarray, rows: np.ndarray, C: int,
) -> None:
    """Write records in the feature-file format read by :func:`read_feature_file`, atomically.

    Record ``i`` is ``ids[i]``, ``timestamps[i]``, ``labels[i]`` and the
    features ``x[rows[i]]``, read from ``x`` one row at a time: no
    ``x[rows]`` matrix is built.
    """
    with atomic_write(path) as fh:
        fh.write(f"#d={x.shape[1]} C={C}\n")
        for sid, ts, label, row in zip(ids.tolist(), timestamps.tolist(), labels.tolist(), rows):
            feats = ",".join(repr(float(v)) for v in x[row].tolist())
            fh.write(f"{sid}\t{ts}\t{label}\t{feats}\n")


def stream_manifest(stream: TemporalStream) -> str:
    """One line per bucket: ``index<TAB>first_timestamp<TAB>last_timestamp<TAB>count``."""
    starts = stream.offsets[:-1]
    first = np.minimum.reduceat(stream.timestamps, starts).tolist()
    last = np.maximum.reduceat(stream.timestamps, starts).tolist()
    counts = np.diff(stream.offsets).tolist()
    lines = [f"{t}\t{lo}\t{hi}\t{n}" for t, (lo, hi, n) in enumerate(zip(first, last, counts))]
    return "\n".join(lines) + "\n"


def as_arrays(samples: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a sample sequence into (features, labels) arrays."""
    if len(samples) == 0:
        raise ValueError("empty sample sequence")
    x = np.stack([s.features for s in samples])
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x, y
