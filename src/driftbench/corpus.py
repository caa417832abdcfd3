"""Timestamped labeled sample streams: bucketization, splits, synthetic drift, file IO."""

from __future__ import annotations

import io
import math
import os
import pickle
import shutil
import sys
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np


class FeatureFileError(ValueError):
    """Raised when a feature file is malformed; the message names the offending line."""


class LineError(ValueError):
    """A rejected line of a vector file: ``args`` are the byte offset at which it starts and why; see :func:`named_lines`."""


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
    Rows already in that order are not copied: the stream's arrays are then
    leading slices of the arguments.
    """
    size, dropped = bucket_shape(len(ids), n_buckets)
    if len(np.unique(ids)) != len(ids):
        raise ValueError("sample ids must be unique within a stream")
    if y.min() < 0 or y.max() >= C:
        raise ValueError(f"label {y.min() if y.min() < 0 else y.max()} out of range for class_count={C}")
    later, tied = timestamps[1:] > timestamps[:-1], timestamps[1:] == timestamps[:-1]
    if (later | tied & (ids[1:] > ids[:-1])).all():
        kept = slice(0, size * n_buckets)
    else:
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


def parse_int64(text: str) -> int:
    """The integer that ``text`` spells as ASCII ``-?[0-9]+``; ``ValueError`` for other text or a value outside int64.

    ``int()`` would also read ``1_0``, ``+1``, padded text and non-ASCII digits:
    every integer of the inputs has one spelling, as every vector value has.
    """
    if not (text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit())):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    if -(2**63) <= (value := int(text)) < 2**63:
        return value
    raise ValueError(f"integer {text} outside the int64 range")


def parse_float(text: str) -> float:
    """``float(text)`` for ASCII text without ``_``: one spelling per number, as ``np.loadtxt`` reads vector values."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_records(
    lines: Iterable[str], n_ints: int, k: int, normalize: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``i_1<TAB>...<TAB>i_n<TAB>v1,...,vk`` lines into ``(n_ints, rows)`` int64s and a matrix.

    Blank lines are skipped.  The integer fields go to :func:`parse_int64`.
    The vector fields go to ``np.loadtxt`` and form one finite ``(rows, k)``
    array; with ``normalize`` set, each row is scaled in place by
    :func:`unit_rows`.  ``n_ints`` must be >= 1.  Raises ``ValueError``
    on a wrong field count, a non-integer or non-int64 field, a vector field
    ``np.loadtxt`` rejects or without ``k`` values, a non-finite value, or a
    row to normalize that is zero or whose squared norm overflows.  The
    error names no line; for one line, it says what is wrong with it.
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
                    column.append(parse_int64(text))
                yield vector

    fields = vector_fields()
    first = next(fields, None)
    if first is None:
        return np.empty((n_ints, 0), dtype=np.int64), np.empty((0, k))
    x = np.loadtxt(chain([first], fields), delimiter=",", comments=None, ndmin=2)
    ints = np.array(columns, dtype=np.int64)
    if x.shape != (ints.shape[1], k):
        raise ValueError(f"expected {k} components, got {x.shape[1]}")
    if normalize:
        unit_rows(x)
    elif not np.isfinite(x).all():
        raise ValueError("non-finite value")
    return ints, x


def unit_rows(x: np.ndarray) -> np.ndarray:
    """``x``, each row scaled in place to unit L2 norm ``sqrt(x . x)``; ``ValueError`` if a value is not finite or a row is zero or its square overflows."""
    if not np.isfinite(x).all():
        raise ValueError("non-finite value")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(x, x))
    if not norms.all():
        raise ValueError("zero vector cannot be normalized")
    if np.isinf(norms).any():
        raise ValueError("squared norm overflows; vector cannot be normalized")
    x /= norms[:, None]
    return x


# Bytes of records a worker process must have to parse before workers are
# forked: below about 1 MiB, forking, reaping and placing the rows cost more
# than they save (measured on a 2-CPU host).  Readers also parse a range a
# chunk of about this size at a time.
FORK_MIN_BYTES = 1 << 20


def line_chunks(fd: int, start: int, stop: int) -> Iterator[tuple[int, bytes]]:
    """Bytes ``start:stop`` of file descriptor ``fd`` as ``(offset, chunk)`` pairs, in order.

    Each chunk holds about ``FORK_MIN_BYTES`` and ends just past a newline,
    or at ``stop``; a longer line makes a longer chunk.  The reads go through
    :func:`os.pread`, so forked processes may share the descriptor.
    """
    size = FORK_MIN_BYTES
    while start < stop:
        data = os.pread(fd, min(size, stop - start), start)
        if len(data) < min(size, stop - start):
            raise ValueError(f"file ended {stop - start - len(data)} bytes early")
        cut = len(data) if start + len(data) == stop else data.rfind(b"\n") + 1
        if cut:
            yield start, data[:cut]
            start, size = start + cut, FORK_MIN_BYTES
        else:
            size *= 2


def record_lines(base: int, chunk: bytes) -> tuple[list[str], np.ndarray]:
    """The lines of a UTF-8 chunk at file offset ``base`` that hold records, and their ``(2, records)`` byte spans."""
    lines = chunk.splitlines(keepends=True)  # at "\n", "\r\n" and a lone "\r", as text-mode files split
    sizes = np.fromiter(map(len, lines), np.int64, len(lines))
    ends = base + np.cumsum(sizes)
    text = [line.decode("utf-8") for line in lines]
    records = list(map(bool, map(str.strip, text)))  # the lines parse_records does not skip
    return list(compress(text, records)), np.array([ends - sizes, ends])[:, records]


def line_reason(exc: ValueError) -> str:
    """What is wrong with a line, from the ``ValueError`` of parsing it alone; numpy's ``row 0`` of that one-line parse is dropped."""
    return str(exc).replace(" at row 0, column ", " at column ")


def record_fault(base: int, chunk: bytes, n_ints: int, k: int, normalize: bool) -> LineError | None:
    """The first line of ``chunk``, at file offset ``base``, that :func:`parse_records` or UTF-8 rejects alone, or None."""
    for line in chunk.splitlines(keepends=True):
        try:
            parse_records([line.decode("utf-8")], n_ints, k, normalize)
        except ValueError as exc:
            return LineError(base, line_reason(exc))
        base += len(line)
    return None


def header_ints(fh: BinaryIO, names: Sequence[str]) -> tuple[int, ...]:
    """The values of ``names`` in a vector file's first line, ``#`` then ``key=value`` pairs; ``fh`` is left at line 2.

    The line ends where :func:`record_lines` would end it.  Each of
    ``names`` must be there once with a :func:`parse_int64` value >= 1, and
    other keys are ignored.  A bad header, or one not UTF-8, raises
    :class:`LineError` at 0, for the first of: no ``#``; one of ``names``
    given twice; a part without ``=``, or one of ``names`` missing or not an
    integer; a value below 1.
    """
    fh.seek(0)
    raw = fh.readline().splitlines(keepends=True)[:1] or [b""]
    fh.seek(len(raw[0]))
    try:
        line = raw[0].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LineError(0, str(exc)) from None
    form = "#" + " ".join(f"{name}=<{name}>" for name in names)
    if not line.startswith("#"):
        raise LineError(0, f"missing '{form}' header")
    pairs = [part.partition("=") for part in line[1:].split()]
    keys = [key for key, _, _ in pairs]
    for name in names:
        if keys.count(name) > 1:
            raise LineError(0, f"header key {name!r} given twice")
    fields = {key: value for key, _, value in pairs}
    try:
        if not all(sep for _, sep, _ in pairs):
            raise ValueError("a part without '='")
        values = tuple(parse_int64(fields[name]) for name in names)
    except (ValueError, KeyError):
        raise LineError(0, f"expected header '{form}', got {line!r}") from None
    if min(values) < 1:
        raise LineError(0, f"{' and '.join(names)} must be >= 1")
    return values


def read_text(path: str | Path, error: type[ValueError]) -> str:
    """The UTF-8 text of the file at ``path``, line ends as written, for :func:`text_lines`; a byte that is not UTF-8 raises ``error``.

    The error names the byte's line as ``path:line``, counting lines as
    :func:`record_lines` does, with that line's own decode error.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        for line, raw in enumerate(data.splitlines(keepends=True), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{line}: {exc}") from None
        raise


def text_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of ``text`` and their 1-based numbers, split at ``\\n``, ``\\r\\n`` or a lone ``\\r`` as a text-mode file splits them."""
    lines = io.StringIO(text, newline=None).getvalue().split("\n")
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]


def reject_first(starts: np.ndarray, ids: np.ndarray, labels: np.ndarray | None = None, C: int = 0) -> None:
    """Raise :class:`LineError` at ``starts[i]`` for the first record ``i`` that fails a whole-file check.

    Record ``i`` has id ``ids[i]`` and, if ``labels`` is given, label
    ``labels[i]``.  It fails if its id is negative, else if its label is
    outside ``[0, C)``, else if its id repeats an earlier record's.
    """
    by_id = np.argsort(ids, kind="stable")  # equal ids stay in file order
    sorted_ids = ids[by_id]
    bad = ids < 0
    bad[by_id[1:][sorted_ids[1:] == sorted_ids[:-1]]] = True  # each later record of an id
    if labels is not None:
        bad |= (labels < 0) | (labels >= C)
    if bad.any():
        i = int(bad.argmax())
        why = ("id must be non-negative" if ids[i] < 0
               else f"label {labels[i]} outside [0, {C})" if labels is not None and not 0 <= labels[i] < C
               else f"duplicate id {ids[i]}")
        raise LineError(int(starts[i]), why)


@contextmanager
def named_lines(fh: BinaryIO, error: type[ValueError]) -> Iterator[None]:
    """Raise a :class:`LineError` of the block as ``error("<fh.name>:<line>: <why>")``, counting lines as :func:`record_lines` splits them."""
    try:
        yield
    except LineError as exc:
        offset, why = exc.args
        line = 1 + sum(len(chunk.splitlines()) for _, chunk in line_chunks(fh.fileno(), 0, offset))
        raise error(f"{fh.name}:{line}: {why}") from None


def read_records(
    fh: BinaryIO, n_ints: int, k: int, normalize: bool,
    reduce: Callable[[np.ndarray], np.ndarray] = lambda x: x,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parse_records` of the :func:`record_lines` from ``fh``'s position on, a chunk at a time.

    Returns ``(n_ints + 2, rows)`` int64s, the integer fields and then each
    record's start and stop offsets as :func:`record_lines` gives them, and
    the ``reduce`` of each chunk's ``(rows, k)`` matrix, one float64 row per
    record, stacked; the default keeps the matrix.  Only the reduction of a
    chunk's matrix is kept once the next chunk is parsed.  A chunk that does
    not parse raises the :func:`record_fault` of its first bad line.

    With P = :func:`_process_count` (a unit per ``FORK_MIN_BYTES`` bytes)
    above 1, the bytes are cut at line ends into P ranges, each read by a
    worker of :func:`_fork_shares` (share 0, here, reads nothing); once they
    are reaped, this process places the rows from their files into arrays
    allocated at their final size.  The result, and the ``ValueError`` of a
    malformed record, are those of one process.
    """
    empty = reduce(np.empty((0, k)))

    def parse(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        ints, out = [np.empty((n_ints + 2, 0), dtype=np.int64)], [empty]
        for base, chunk in line_chunks(fh.fileno(), start, stop):
            try:
                lines, spans = record_lines(base, chunk)
                fields, x = parse_records(lines, n_ints, k, normalize)
            except ValueError as exc:
                raise record_fault(base, chunk, n_ints, k, normalize) or exc
            ints.append(np.vstack([fields, spans]))
            out.append(reduce(x))
            del x  # before the next chunk is parsed
        return np.concatenate(ints, axis=1), np.concatenate(out)

    body, size = fh.tell(), os.fstat(fh.fileno()).st_size
    processes = _process_count(max(1, (size - body) // FORK_MIN_BYTES))
    if processes == 1:
        return parse(body, size)
    cuts = [body]
    for p in range(1, processes):
        fh.seek(body + (size - body) * p // processes)
        fh.readline()
        cuts.append(fh.tell())
    cuts.append(size)

    def share(first: int, file: BinaryIO | None) -> None:
        if file is not None:
            ints, x = parse(cuts[first - 1], cuts[first])
            file.writelines([len(x).to_bytes(8, "little", signed=True), ints, x])

    with _fork_shares(processes + 1, share) as workers:
        if code := next((code for code, _ in workers if code), 0):
            raise ChildProcessError(f"a worker process reading {fh.name} {_exit_text(code)}")
        counts = [int.from_bytes(file.read(8), "little", signed=True) for _, file in workers]
        ints, x = np.empty((n_ints + 2, sum(counts)), dtype=np.int64), np.empty((sum(counts), empty.shape[1]))
        for (_, file), start, count in zip(workers, np.cumsum([0, *counts]), counts):
            for column in ints:
                file.readinto(column[start : start + count])
            file.readinto(x[start : start + count])
    return ints, x


@dataclass(frozen=True, eq=False)
class FileRows:
    """The vectors of records in an open file, parsed again from their bytes when they are read.

    Row ``r`` is the record at bytes ``spans[0, r]:spans[1, r]`` of ``fh``,
    whose ``n_ints`` integer fields start with ``ids[r]`` and whose vector has
    ``k`` values, parsed as :func:`parse_records` with ``normalize`` does
    after :func:`record_lines` splits them.
    """

    fh: BinaryIO
    ids: np.ndarray
    spans: np.ndarray
    n_ints: int
    k: int
    normalize: bool

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ids), self.k

    def rows(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """The vector of each row in ``rows``, in order, parsed a chunk of about ``FORK_MIN_BYTES`` at a time.

        A record that no longer parses, or whose id is not its row's, raises
        ``ValueError`` naming the file.
        """
        spans = self.spans[:, rows]
        chunk = np.cumsum(spans[1] - spans[0]) // FORK_MIN_BYTES
        cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(rows)]
        starts, stops = spans.tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            data = b"\n".join(os.pread(self.fh.fileno(), stop - start, start)
                              for start, stop in zip(starts[lo:hi], stops[lo:hi]))
            try:
                ints, x = parse_records(record_lines(0, data)[0], self.n_ints, self.k, self.normalize)
            except ValueError:
                ints = None
            if ints is None or not np.array_equal(ints[0], self.ids[rows[lo:hi]]):
                raise ValueError(f"{self.fh.name}: records changed since the file was read")
            yield from x


FeatureArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]


def read_feature_file(path: str | Path, normalize: bool = False) -> FeatureArrays:
    """Read ``id<TAB>timestamp<TAB>label<TAB>f1,...,fd`` records as (ids, timestamps, labels, x, C).

    Three int64 vectors and the ``(rows, d)`` matrix, in file order, and the
    header's class count, read by :func:`read_records`.  With ``normalize``
    set, each row is scaled to unit L2 norm; rows that are zero or whose
    squared norm overflows are rejected.  A malformed file raises
    :class:`FeatureFileError` naming its first bad line: the first record
    that does not parse, else the first that :func:`reject_first` rejects
    (a negative id, a label outside ``[0, C)`` or a repeated id).
    """
    with open(path, "rb") as fh, named_lines(fh, FeatureFileError):
        d, c = header_ints(fh, ("d", "C"))
        (ids, timestamps, labels, starts, _), x = read_records(fh, 3, d, normalize)
        reject_first(starts, ids, labels, c)
    return ids, timestamps, labels, x, c


def load_feature_file(path: str | Path, normalize: bool = False) -> list[Sample]:
    """:func:`read_feature_file` as one :class:`Sample` per record; features are rows of one matrix."""
    ids, timestamps, labels, x, _ = read_feature_file(path, normalize)
    return [Sample(*rec) for rec in zip(ids.tolist(), timestamps.tolist(), x, labels.tolist())]


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


# Worker processes are forked only when every one of these that is set reads 1.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _process_count(units: int) -> int:
    """How many processes share ``units`` units of work: one per usable CPU, at most one per unit.

    That needs BLAS pinned to one thread per process (at least one of the
    BLAS thread variables set, and each one set reading 1), or the processes
    would oversubscribe the CPUs.  Otherwise, where processes cannot fork, or
    when this process runs other threads (a fork copies no thread, but may
    copy a lock one of them holds), the count is 1: the work runs here.
    The run's (cell, seed) units, the feature-file writer's row blocks and
    the readers' byte ranges all follow this rule.
    """
    threads = {os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ}
    if (threads != {"1"} or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(units, len(os.sched_getaffinity(0)))


def _exit_text(code: int) -> str:
    """How a worker ended, from its exit code as :func:`os.waitstatus_to_exitcode` gives it."""
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


# The exit status of a worker whose share raised ValueError.
_VALUE_ERROR = 2


@contextmanager
def _fork_shares(
    processes: int, share: Callable[[int, BinaryIO | None], None]
) -> Iterator[list[tuple[int, BinaryIO]]]:
    """Run ``share(first, file)`` for every ``first`` below ``processes``; share 0 runs here.

    Shares 1..P-1 run in worker processes forked from this one, so they see
    its memory copy-on-write.  Each worker gets its own unnamed temporary
    ``file`` (share 0 gets None) and exits with status 0 once its share
    returns and the file is flushed, else with status 1.  Once share 0 has
    returned and every worker is reaped, the block gets each worker's exit
    code (negative: the signal that killed it) and its file, rewound, in
    index order.  A share that raises ``ValueError`` in a worker leaves only
    the exception, pickled, in the file, and the first such exception is
    raised here instead.  When this process raises before the block, the
    workers still running are killed and reaped first.  Every file is closed
    when the block exits, however it exits.
    """
    workers: list[tuple[BinaryIO, int]] = []
    codes: list[int] = []
    try:
        for first in range(1, processes):
            workers.append((file := tempfile.TemporaryFile(), os.fork()))
            if workers[-1][1] == 0:  # the worker ends in os._exit, whatever happens: it must not return into the caller's code
                code = 1
                try:
                    share(first, file)
                    file.flush()
                    code = 0
                except ValueError as exc:
                    file.seek(0)
                    file.truncate()
                    pickle.dump(exc, file)
                    file.flush()
                    code = _VALUE_ERROR
                except BaseException:
                    import traceback

                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
        share(0, None)
        for _, pid in workers:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        for file, _ in workers:
            file.seek(0)
        if _VALUE_ERROR in codes:
            raise pickle.load(workers[codes.index(_VALUE_ERROR)][0])
        yield [(code, file) for code, (file, _) in zip(codes, workers)]
    finally:
        for _, pid in workers[len(codes):]:
            import signal  # here, since its import costs a millisecond that no run without an error needs

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for file, _ in workers:
            file.close()


# Feature values a worker process must have to format before one is forked:
# below about 1,000 rows of 64 values, a worker's fork, reaping and copy cost
# more than it saves (measured on a 2-CPU host).
FORK_MIN_VALUES = 64_000


def write_feature_file(
    path: str | Path, ids: np.ndarray, timestamps: np.ndarray, labels: np.ndarray,
    x: np.ndarray | FileRows, rows: np.ndarray, C: int,
) -> None:
    """Write records in the feature-file format read by :func:`read_feature_file`, atomically.

    Record ``i`` is ``ids[i]``, ``timestamps[i]``, ``labels[i]`` and the
    features ``x[rows[i]]``, read from ``x`` one row at a time: no
    ``x[rows]`` matrix is built.  ``x`` is a matrix or :class:`FileRows`,
    whose rows each block parses again from their file, a chunk at a time.
    The records are cut into P contiguous blocks (:func:`_process_count`, a
    unit per ``FORK_MIN_VALUES`` values), block ``i`` formatted by share
    ``i`` of :func:`_fork_shares`: this process writes the header and block
    0, then appends the files of the workers that formatted the others, so
    the bytes are the same for any P.  A worker that fails raises
    :class:`ChildProcessError`; a ``ValueError`` of :meth:`FileRows.rows` is
    raised here.  Either way ``path`` keeps its old content.
    """
    processes = _process_count(max(1, len(rows) * x.shape[1] // FORK_MIN_VALUES))
    bounds = [len(rows) * p // processes for p in range(processes + 1)]
    with atomic_write(path) as fh:
        fh.write(f"#d={x.shape[1]} C={C}\n")

        def share(first: int, file: BinaryIO | None) -> None:
            block = slice(bounds[first], bounds[first + 1])
            values = (x[row] for row in rows[block]) if isinstance(x, np.ndarray) else x.rows(rows[block])
            out = fh if file is None else io.TextIOWrapper(file, encoding="utf-8")
            try:
                for sid, ts, label, row in zip(ids[block].tolist(), timestamps[block].tolist(),
                                               labels[block].tolist(), values):
                    feats = ",".join(repr(float(v)) for v in row.tolist())
                    out.write(f"{sid}\t{ts}\t{label}\t{feats}\n")
            finally:  # also on a ValueError, which _fork_shares pickles into ``file``
                if file is not None:
                    out.detach()  # flushes the text into ``file`` and leaves it open

        with _fork_shares(processes, share) as workers:
            if code := next((code for code, _ in workers if code), 0):
                raise ChildProcessError(f"a worker process writing {path} {_exit_text(code)}")
            fh.flush()
            for _, file in workers:
                shutil.copyfileobj(file, fh.buffer)


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
