"""The iid and streaming evaluation protocols over a stream, a strategy, and a sampler."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import Sample, TemporalStream, as_arrays, split_iid
from .learner import Architecture, Hyperparams, LearnerState, Strategy, predict_batch, strategy_step
from .sampler import AlphaPolicy, ReplayBuffer, update_buffer

# A run seed r fans out to component seeds at fixed offsets so ablations can
# vary exactly one randomness source.
SPLIT_SEED_OFFSET = 0
SAMPLER_SEED_OFFSET = 1000
LEARNER_SEED_OFFSET = 2000

# Consecutive evaluation targets are scored in one predict_batch call while
# their rows fit this budget; a larger target is scored alone.  It bounds the
# feature copy made per call, so memory does not grow with the stream.
SCORE_BATCH_ROWS = 1024


class ProtocolKind(Enum):
    IID = "iid"
    STREAMING = "streaming"


class ProtocolOrderError(RuntimeError):
    """A bucket was trained on before all evaluations targeting it completed."""


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
        present = ~np.isnan(cells)
        values = cells[present]
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("accuracy cells must lie in [0, 1]")
        n = cells.shape[0]
        expected = (
            np.ones((n, n), dtype=bool)
            if self.protocol is ProtocolKind.IID
            else np.triu(np.ones((n, n), dtype=bool), k=1)
        )
        if not np.array_equal(present, expected):
            raise ValueError(f"cell presence does not match {self.protocol.value} protocol")

    @property
    def n(self) -> int:
        return self.cells.shape[0]


def matrix_to_text(matrix: AccuracyMatrix) -> str:
    """Plain-text grid: header line, then N comma-separated rows with NA for absent cells."""
    lines = [f"N={matrix.n} protocol={matrix.protocol.value}"]
    for row in matrix.cells:
        lines.append(",".join("NA" if v != v else f"{v:.6f}" for v in row.tolist()))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> AccuracyMatrix:
    """Parse the grid format written by :func:`matrix_to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        header = dict(part.split("=", 1) for part in lines[0].split())
        n = int(header["N"])
        protocol = ProtocolKind(header["protocol"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad matrix header: {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    cells = np.full((n, n), np.nan)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != n:
            raise ValueError(f"row {i}: expected {n} cells, got {len(parts)}")
        for j, part in enumerate(parts):
            if part != "NA":
                try:
                    cells[i, j] = float(part)
                except ValueError as exc:
                    raise ValueError(f"row {i}, column {j}: bad cell {part!r}") from exc
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
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    x, y = as_arrays(test)
    return float(np.mean(predict_batch(state, x) == y))


def _score(state: LearnerState, targets: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """Accuracy of ``state`` on each ``(x, y)`` target, equal to :func:`evaluate` on each alone.

    Runs of consecutive targets within ``SCORE_BATCH_ROWS`` rows share one
    ``predict_batch`` call; per-row hits are summed back per target.
    """
    scores: list[float] = []
    start = 0
    while start < len(targets):
        stop, rows = start + 1, len(targets[start][1])
        while stop < len(targets) and rows + len(targets[stop][1]) <= SCORE_BATCH_ROWS:
            rows += len(targets[stop][1])
            stop += 1
        group = targets[start:stop]
        if len(group) == 1:  # scored in place: a large bucket is never copied
            x, y = group[0]
        else:
            x = np.concatenate([gx for gx, _ in group])
            y = np.concatenate([gy for _, gy in group])
        sizes = np.array([len(gy) for _, gy in group])
        hits = predict_batch(state, x) == y
        scores.extend((np.add.reduceat(hits, np.cumsum(sizes) - sizes) / sizes).tolist())
        start = stop
    return scores


def _learner_hp(cfg: RunConfig, seed: int, step: int) -> Hyperparams:
    return replace(cfg.hyperparams, seed=seed + LEARNER_SEED_OFFSET + step)


def _run_protocol(
    kind: ProtocolKind,
    train_sets: Sequence[Sequence[Sample]],
    targets: Sequence[tuple[np.ndarray, np.ndarray]],
    cfg: RunConfig,
    seed: int,
    event_log: list[Event] | None,
) -> AccuracyMatrix:
    """The loop both protocols share: ingest, train, then score the step's targets.

    Step ``i`` folds ``train_sets[i]`` into the replay buffer, trains on the
    buffer (Napping: on ``train_sets[0]``) and scores ``targets[first:]``, with
    ``first = 0`` for iid and ``i + 1`` for streaming.  Only streaming targets
    are trained on, so only streaming checks the evaluation order.
    """
    n = len(train_sets)
    streaming = kind is ProtocolKind.STREAMING
    events = event_log if event_log is not None else []
    prior = Counter(e.bucket for e in events if e.kind == "evaluate")
    evaluated = [prior[b] for b in range(n)]
    buffer = ReplayBuffer.empty(cfg.buffer_capacity)
    sampler_rng = np.random.default_rng(seed + SAMPLER_SEED_OFFSET)
    cells = np.full((n, n), np.nan)
    state: LearnerState | None = None
    for i in range(n):
        if streaming and evaluated[i] != i:
            raise ProtocolOrderError(
                f"bucket {i} has {evaluated[i]} of {i} required evaluations before training"
            )
        buffer = update_buffer(buffer, train_sets[i], cfg.alpha_policy, sampler_rng)
        events.append(Event(kind="train", step=i, bucket=i))
        train_data = train_sets[0] if cfg.strategy is Strategy.NAPPING else buffer.entries
        state = strategy_step(
            cfg.strategy, state, i, train_data, _learner_hp(cfg, seed, i), cfg.architecture
        )
        first = i + 1 if streaming else 0
        cells[i, first:] = _score(state, targets[first:])
        for j in range(first, n):
            events.append(Event(kind="evaluate", step=i, bucket=j))
            evaluated[j] += 1
    return AccuracyMatrix(cells=cells, protocol=kind)


def run_iid_protocol(
    stream: TemporalStream,
    cfg: RunConfig,
    seed: int,
    event_log: list[Event] | None = None,
) -> AccuracyMatrix:
    """Per-bucket 70/30-style splits; every predictor is evaluated on all held-out test sets.

    Test sets are fixed once per seed and never trained on.  Training data for
    each step is the replay buffer after ingesting the bucket's train split
    (Napping trains once, on the first bucket's train split).
    """
    if stream.n_buckets < 2:
        raise ValueError("iid protocol needs at least 2 buckets")
    if cfg.train_fraction is None:
        raise ValueError("iid protocol requires train_fraction")
    splits = [
        split_iid(b, cfg.train_fraction, seed + SPLIT_SEED_OFFSET + b.index)
        for b in stream.buckets
    ]
    test_xy = [as_arrays(test) for _, test in splits]
    train_sets = [train for train, _ in splits]
    return _run_protocol(ProtocolKind.IID, train_sets, test_xy, cfg, seed, event_log)


def run_streaming_protocol(
    stream: TemporalStream,
    cfg: RunConfig,
    seed: int,
    event_log: list[Event] | None = None,
) -> AccuracyMatrix:
    """Train on each full bucket in order, then evaluate on strictly future buckets.

    No held-out splits: bucket j is evaluated by every earlier predictor before
    it is ever ingested for training.  The ordering is checked at each step,
    not merely followed by convention: a per-bucket count of evaluate events,
    seeded from any events already in ``event_log`` and advanced as each one is
    appended, must equal the bucket's index before the bucket is trained on.
    The runner's post-run :func:`audit_streaming_order` re-checks the written
    log independently.
    """
    if stream.n_buckets < 2:
        raise ValueError("streaming protocol needs at least 2 buckets")
    bucket_xy = [as_arrays(b.samples) for b in stream.buckets]
    train_sets = [b.samples for b in stream.buckets]
    return _run_protocol(ProtocolKind.STREAMING, train_sets, bucket_xy, cfg, seed, event_log)


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


def parse_event_log(text: str) -> tuple[ProtocolKind, list[Event]]:
    """Parse the format written by :func:`event_log_text`.

    Raises ``ValueError`` naming the 1-based line of the first malformed event.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("protocol="):
        raise ValueError("event log must start with a protocol= header")
    protocol = ProtocolKind(lines[0][1].split("=", 1)[1])
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
