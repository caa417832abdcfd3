"""The iid and streaming evaluation protocols over a stream, a strategy, and a sampler."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .corpus import Sample, TemporalStream, as_arrays, split_iid, text_lines
from .learner import Architecture, Hyperparams, LearnerState, Strategy, predict_batch, strategy_step
from .sampler import AlphaPolicy, ReplayBuffer, update_buffer

# A run seed r fans out to component seeds at fixed offsets so ablations can
# vary exactly one randomness source.
SPLIT_SEED_OFFSET = 0
SAMPLER_SEED_OFFSET = 1000
LEARNER_SEED_OFFSET = 2000

# Scoring reads at most this many target rows per predict_batch call; a call
# may span targets and a large target spans calls.  It bounds the rows gathered
# and the activations made per call, so that memory does not grow with the stream.
SCORE_BATCH_ROWS = 1024


class ProtocolKind(Enum):
    IID = "iid"
    STREAMING = "streaming"


class ProtocolOrderError(RuntimeError):
    """A bucket was trained on before all evaluations of it ran, or a run got a non-empty log."""


@dataclass(frozen=True)
class Event:
    """One train or evaluate action, recorded in execution order."""

    kind: str
    step: int
    bucket: int


@dataclass(frozen=True)
class AccuracyMatrix:
    """N x N accuracy grid; absent cells are NaN.

    IID matrices have every cell present; streaming matrices have only the
    strict upper triangle (train at i, test on the future j > i).
    """

    cells: np.ndarray
    protocol: ProtocolKind

    def __post_init__(self) -> None:
        cells = self.cells
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1] or cells.shape[0] < 2:
            raise ValueError(f"cells must be square with N >= 2, got shape {cells.shape}")
        # The NaN-skipping reductions are NaN only when every cell is absent.
        if np.fmin.reduce(cells, axis=None) < 0.0 or np.fmax.reduce(cells, axis=None) > 1.0:
            raise ValueError("accuracy cells must lie in [0, 1]")
        # Row i's absent cells must be a prefix of i + 1 cells when streaming, of none
        # for iid: exactly that many, and the first present cell right after them.
        n = cells.shape[0]
        absent = np.isnan(cells)
        want = np.arange(1, n + 1) if self.protocol is ProtocolKind.STREAMING else np.zeros(n, int)
        first_present = np.argmin(absent, axis=1)
        if not (
            np.array_equal(absent.sum(axis=1), want)
            and np.array_equal(first_present[want < n], want[want < n])
        ):
            raise ValueError(f"cell presence does not match {self.protocol.value} protocol")

    @property
    def n(self) -> int:
        return self.cells.shape[0]


def matrix_to_text(matrix: AccuracyMatrix) -> str:
    """Plain-text grid: header line, then N comma-separated rows with NA for absent cells."""
    return "".join(_matrix_lines(matrix))


# Private, as is _step_log_chunks, so that bench/spans.py leaves it unwrapped
# and a traced run counts its time in runner.self_s, with the writes.
def _matrix_lines(matrix: AccuracyMatrix) -> Iterator[str]:
    """The lines of :func:`matrix_to_text`, each with its newline, formatted one row at a time."""
    n = matrix.n
    streaming = matrix.protocol is ProtocolKind.STREAMING
    yield f"N={n} protocol={matrix.protocol.value}\n"
    for i in range(n):
        # Validation makes the absent cells a row prefix: i + 1 of them when streaming.
        absent = i + 1 if streaming else 0
        row = ",".join(["NA"] * absent + ["%.6f"] * (n - absent)) + "\n"
        yield row % tuple(matrix.cells[i, absent:].tolist())


def matrix_from_text(text: str) -> AccuracyMatrix:
    """Parse the grid format written by :func:`matrix_to_text`; a bad row or cell is named by its line."""
    lines = text_lines(text)
    if not lines:
        raise ValueError("empty matrix text")
    (_, head), *rows = lines
    try:
        header = dict(part.split("=", 1) for part in head.split())
        n = int(header["N"])
        protocol = ProtocolKind(header["protocol"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad matrix header: {head!r}") from exc
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    cells = np.full((n, n), np.nan)
    for i, (lineno, line) in enumerate(rows):
        parts = line.split(",")
        if len(parts) != n:
            raise ValueError(f"line {lineno}: row {i}: expected {n} cells, got {len(parts)}")
        for j, part in enumerate(parts):
            if part != "NA":
                try:
                    cells[i, j] = float(part)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: row {i}, column {j}: bad cell {part!r}") from exc
                if not np.isfinite(cells[i, j]):
                    raise ValueError(f"line {lineno}: row {i}, column {j}: non-finite cell {part!r}")
    return AccuracyMatrix(cells=cells, protocol=protocol)


@dataclass(frozen=True)
class RunConfig:
    """Everything one protocol run needs besides the stream and the seed."""

    strategy: Strategy
    architecture: Architecture
    hyperparams: Hyperparams
    alpha_policy: AlphaPolicy
    buffer_capacity: int
    train_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")


def evaluate(state: LearnerState, test: Sequence[Sample]) -> float:
    """Fraction of test samples whose predicted class equals the label."""
    x, y = as_arrays(test)
    return float(np.mean(predict_batch(state, x) == y))


def _score(
    state: LearnerState, stream: TemporalStream, rows: np.ndarray | None, offsets: np.ndarray
) -> list[float]:
    """Accuracy of ``state`` on each target ``t``, the positions ``offsets[t]:offsets[t + 1]``.

    Position ``p`` is the stream row ``rows[p]``, or row ``p`` itself when
    ``rows`` is None; then each chunk is a contiguous view of ``stream.x``,
    and otherwise a gather of at most ``SCORE_BATCH_ROWS`` rows.  Each cell
    equals :func:`evaluate` on its target alone: the per-row hits of the
    chunks are summed back per target.
    """
    lo, hi = int(offsets[0]), int(offsets[-1])
    hits = np.empty(hi - lo, dtype=bool)
    for start in range(lo, hi, SCORE_BATCH_ROWS):
        stop = min(start + SCORE_BATCH_ROWS, hi)
        chunk = slice(start, stop) if rows is None else rows[start:stop]
        hits[start - lo : stop - lo] = predict_batch(state, stream.x[chunk]) == stream.y[chunk]
    return (np.add.reduceat(hits, offsets[:-1] - lo) / np.diff(offsets)).tolist()


def _run_protocol(
    kind: ProtocolKind,
    stream: TemporalStream,
    train_rows: Sequence[range | np.ndarray],
    targets: tuple[np.ndarray | None, np.ndarray],
    cfg: RunConfig,
    seed: int,
    event_log: list[Event] | None,
) -> AccuracyMatrix:
    """The loop both protocols share: ingest, train, then score the step's targets.

    Step ``i`` folds the stream rows ``train_rows[i]`` (a range, or an index
    vector listed as Python ints only at that step) into the replay buffer,
    trains on the buffer's rows (Napping: on ``train_rows[0]``) and scores the
    targets ``first:`` of the ``(rows, offsets)`` target table, with
    ``first = 0`` for iid and ``i + 1`` for streaming.  Neither the training
    rows nor the targets are gathered as a whole: the learner gathers each
    minibatch, and :func:`_score` each chunk, from ``stream.x``.  A step with no
    target left, streaming's last, only ingests: no model is fit, since none
    would be scored.  The loop builds no per-evaluation object; ``event_log``,
    if given, starts empty and receives the step's :class:`Event` objects as
    the step runs.  Only streaming targets are trained on, so only they are
    checked.
    """
    if event_log:
        raise ProtocolOrderError(f"event_log must be empty, got {len(event_log)} events")
    n = len(train_rows)
    streaming = kind is ProtocolKind.STREAMING
    evaluated = np.zeros(n, dtype=np.int64)
    buffer = ReplayBuffer.empty(cfg.buffer_capacity)
    sampler_rng = np.random.default_rng(seed + SAMPLER_SEED_OFFSET)
    cells = np.full((n, n), np.nan)
    state: LearnerState | None = None
    target_rows, target_offsets = targets
    for i in range(n):
        if streaming and evaluated[i] != i:
            raise ProtocolOrderError(
                f"bucket {i} has {evaluated[i]} of {i} required evaluations before training"
            )
        bucket = train_rows[i]
        bucket = bucket.tolist() if isinstance(bucket, np.ndarray) else bucket  # the sampler takes Python ints
        buffer = update_buffer(buffer, bucket, cfg.alpha_policy, sampler_rng)
        if event_log is not None:
            event_log.append(Event(kind="train", step=i, bucket=i))
        first = i + 1 if streaming else 0
        if first < n:
            rows = np.array(train_rows[0] if cfg.strategy is Strategy.NAPPING else buffer.entries)
            hp = replace(cfg.hyperparams, seed=seed + LEARNER_SEED_OFFSET + i)
            state = strategy_step(cfg.strategy, state, i, stream.x, stream.y, hp, cfg.architecture, rows)
            cells[i, first:] = _score(state, stream, target_rows, target_offsets[first:])
            if event_log is not None:
                event_log.extend(Event(kind="evaluate", step=i, bucket=j) for j in range(first, n))
            evaluated[first:] += 1
            if streaming and evaluated[i] != i:
                raise ProtocolOrderError(f"step {i} evaluated bucket {i} after training on it")
    return AccuracyMatrix(cells=cells, protocol=kind)


def run_iid_protocol(
    stream: TemporalStream,
    cfg: RunConfig,
    seed: int,
    event_log: list[Event] | None = None,
) -> AccuracyMatrix:
    """Per-bucket 70/30-style splits; every predictor is evaluated on all held-out test sets.

    Test sets are fixed once per seed and never trained on.  The target table
    is their row index vector plus per-bucket offsets, so their features are
    scored in place and never copied as a whole.  Training data for each step
    is the replay buffer after ingesting the bucket's train split (Napping
    trains once, on the first bucket's train split).  ``event_log`` is as for
    :func:`run_streaming_protocol`.
    """
    if stream.n_buckets < 2:
        raise ValueError("iid protocol needs at least 2 buckets")
    if cfg.train_fraction is None:
        raise ValueError("iid protocol requires train_fraction")
    bounds = stream.offsets.tolist()
    train_rows, tests = [], []
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        train, test = split_iid(np.arange(lo, hi), cfg.train_fraction, seed + SPLIT_SEED_OFFSET + t)
        train_rows.append(train)
        tests.append(test)
    targets = (np.concatenate(tests), np.cumsum([0, *map(len, tests)]))
    del tests  # the test rows are held once, in the target table
    return _run_protocol(ProtocolKind.IID, stream, train_rows, targets, cfg, seed, event_log)


def run_streaming_protocol(
    stream: TemporalStream,
    cfg: RunConfig,
    seed: int,
    event_log: list[Event] | None = None,
) -> AccuracyMatrix:
    """Train on each full bucket in order, then evaluate on strictly future buckets.

    No held-out splits: bucket j is evaluated by every earlier predictor before
    it is ever ingested for training.  The ordering is checked at each step,
    not merely followed by convention: a per-bucket count of evaluations must
    equal the bucket's index before the bucket is trained on, and must not
    grow after.  The last bucket is ingested but no model is fit for it: it
    has no future bucket to score, so ``N - 1`` models are fit.

    ``event_log``, if given, must be empty; a non-empty list raises
    :class:`ProtocolOrderError` before any step runs and is left as it was.
    It receives each step's events as the step runs, so a run that raises
    keeps the events of the steps it began.  Without it no :class:`Event` is
    built; a run that returns has followed the order above, which is what the
    runner writes as its event log.
    """
    if stream.n_buckets < 2:
        raise ValueError("streaming protocol needs at least 2 buckets")
    bounds = stream.offsets.tolist()
    train_rows = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    targets = (None, stream.offsets)
    return _run_protocol(ProtocolKind.STREAMING, stream, train_rows, targets, cfg, seed, event_log)


def audit_streaming_order(events: Sequence[Event]) -> None:
    """Verify no evaluation targets a bucket after that bucket was trained on.

    Raises :class:`ProtocolOrderError` on the first violation.
    """
    trained: set[int] = set()
    for pos, e in enumerate(events):
        if e.kind == "train":
            trained.add(e.bucket)
        elif e.kind == "evaluate" and e.bucket in trained:
            raise ProtocolOrderError(
                f"event {pos}: evaluation on bucket {e.bucket} after it was trained on"
            )


def event_log_text(protocol: ProtocolKind, events: Sequence[Event]) -> str:
    """Serialize an event log: a protocol header, then one tab-separated event per line."""
    lines = [f"protocol={protocol.value}"]
    lines.extend(f"{e.kind}\t{e.step}\t{e.bucket}" for e in events)
    return "\n".join(lines) + "\n"


def _step_log_chunks(protocol: ProtocolKind, n: int) -> Iterator[str]:
    """The text :func:`event_log_text` writes for the events of a finished ``n``-bucket run.

    The header comes first, then one chunk per step: step ``i`` is a ``train``
    event on bucket ``i``, then an ``evaluate`` event on each bucket ``first``
    to ``n - 1`` (``first`` is 0 for iid, ``i + 1`` for streaming), written
    with one join over the bucket numbers' strings.
    """
    streaming = protocol is ProtocolKind.STREAMING
    buckets = [str(b) for b in range(n)]
    yield f"protocol={protocol.value}\n"
    for step in range(n):
        first = step + 1 if streaming else 0
        label = buckets[step]
        chunk = f"train\t{label}\t{label}\n"
        if first < n:
            prefix = f"evaluate\t{label}\t"
            chunk += prefix + ("\n" + prefix).join(buckets[first:]) + "\n"
        yield chunk


def parse_event_log(text: str) -> tuple[ProtocolKind, list[Event]]:
    """Parse the format written by :func:`event_log_text`.

    Raises ``ValueError`` naming the 1-based line of the first malformed event.
    """
    lines = text_lines(text)
    if not lines or not lines[0][1].startswith("protocol="):
        raise ValueError("event log must start with a protocol= header")
    header_no, name = lines[0][0], lines[0][1].split("=", 1)[1]
    try:
        protocol = ProtocolKind(name)
    except ValueError:
        raise ValueError(f"line {header_no}: unknown protocol {name!r}") from None
    events = []
    for lineno, ln in lines[1:]:
        fields = ln.split("\t")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        kind, step, bucket = fields
        if kind not in ("train", "evaluate"):
            raise ValueError(f"line {lineno}: unknown event kind {kind!r}")
        try:
            events.append(Event(kind=kind, step=int(step), bucket=int(bucket)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: step and bucket must be integers, got {ln!r}") from exc
    return protocol, events
