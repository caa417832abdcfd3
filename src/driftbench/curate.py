"""Embedding-similarity dataset curation: cosine ranking, top-k selection with
cross-class duplicate rejection, background-class assembly, and balanced finalization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Sample, atomic_write, parse_records


class ShortageError(ValueError):
    """A class ran out of candidate ids before reaching its required count."""


class EmbeddingFileError(ValueError):
    """Raised when an embedding or query file is malformed; names the offending line."""


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    """One id plus its unit-L2-norm vector."""

    id: int
    vector: np.ndarray


@dataclass(frozen=True)
class CurationSpec:
    """Curation counts and the ordered (class name, query vector) list."""

    queries: tuple[tuple[str, np.ndarray], ...]
    per_class_top: int
    background_low_per_class: int
    final_per_class: int

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("need at least one query class")
        names = [name for name, _ in self.queries]
        if len(set(names)) != len(names):
            raise ValueError("query class names must be unique")
        if min(self.per_class_top, self.background_low_per_class, self.final_per_class) < 1:
            raise ValueError("all curation counts must be >= 1")
        if self.final_per_class > self.per_class_top:
            raise ValueError("final_per_class must be <= per_class_top")

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.queries)


@dataclass(frozen=True)
class CosineRanking:
    """Ids in descending-score order (ties broken by ascending id) with score lookup."""

    ids: tuple[int, ...]
    scores: dict[int, float]

    def score(self, record_id: int) -> float:
        return self.scores[record_id]


def _unit(vector: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(vector)):
        raise EmbeddingFileError(f"{context}: non-finite value")
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise EmbeddingFileError(f"{context}: zero vector cannot be normalized")
    return vector / norm


def _embedding_dimension(header: str, path: str) -> int:
    header = header.strip()
    if not header.startswith("#m="):
        raise EmbeddingFileError(f"{path}:1: expected '#m=<m>' header")
    try:
        return int(header[3:])
    except ValueError as exc:
        raise EmbeddingFileError(f"{path}:1: bad dimension in header") from exc


def load_embedding_file(path: str | Path) -> list[EmbeddingRecord]:
    """Load ``#m=<m>`` header plus ``id<TAB>v1,...,vm`` records, unit-normalizing each vector.

    The vectors of all records are rows of one matrix.  Malformed records
    raise :class:`EmbeddingFileError` naming the line.
    """
    path = str(path)
    try:
        return _load_embedding_rows(path)
    except ValueError:
        # The line-by-line reader finds the first bad line and names it.
        return _load_embedding_lines(path)


def _load_embedding_rows(path: str) -> list[EmbeddingRecord]:
    with open(path, encoding="utf-8") as fh:
        m = _embedding_dimension(fh.readline(), path)
        (ids,), x = parse_records(fh, 1, m, normalize=True)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate id")
    return [EmbeddingRecord(id=rid, vector=row) for rid, row in zip(ids, x)]


def _load_embedding_lines(path: str) -> list[EmbeddingRecord]:
    records: list[EmbeddingRecord] = []
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        m = _embedding_dimension(fh.readline(), path)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise EmbeddingFileError(f"{path}:{lineno}: expected 'id<TAB>vector'")
            try:
                rid = int(parts[0])
                vec = np.array([float(v) for v in parts[1].split(",")])
            except ValueError as exc:
                raise EmbeddingFileError(f"{path}:{lineno}: {exc}") from exc
            if vec.shape != (m,):
                raise EmbeddingFileError(f"{path}:{lineno}: expected {m} components")
            if rid in seen:
                raise EmbeddingFileError(f"{path}:{lineno}: duplicate id {rid}")
            seen.add(rid)
            records.append(EmbeddingRecord(id=rid, vector=_unit(vec, f"{path}:{lineno}")))
    return records


def load_query_file(path: str | Path) -> list[tuple[str, np.ndarray]]:
    """Load ``class_name<TAB>v1,...,vm`` query lines, unit-normalizing each vector."""
    path = str(path)
    queries: list[tuple[str, np.ndarray]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise EmbeddingFileError(f"{path}:{lineno}: expected 'name<TAB>vector'")
            try:
                vec = np.array([float(v) for v in parts[1].split(",")])
            except ValueError as exc:
                raise EmbeddingFileError(f"{path}:{lineno}: {exc}") from exc
            queries.append((parts[0], _unit(vec, f"{path}:{lineno}")))
    if not queries:
        raise EmbeddingFileError(f"{path}: no queries found")
    dims = {q.shape[0] for _, q in queries}
    if len(dims) != 1:
        raise EmbeddingFileError(f"{path}: inconsistent query dimensions {sorted(dims)}")
    return queries


def load_rejection_list(path: str | Path) -> set[int]:
    """One id per line; ids to drop before finalization."""
    rejected: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rejected.add(int(line))
            except ValueError as exc:
                raise EmbeddingFileError(f"{path}:{lineno}: bad id {line!r}") from exc
    return rejected


def _stack(embeddings: Sequence[EmbeddingRecord]) -> tuple[list[int], np.ndarray]:
    if not embeddings:
        raise ValueError("no embeddings to rank")
    return [e.id for e in embeddings], np.stack([e.vector for e in embeddings])


def rank_rows(ids: Sequence[int], matrix: np.ndarray, query: np.ndarray) -> CosineRanking:
    """Rank the rows of a stacked ``(U, m)`` embedding matrix, row ``i`` having id ``ids[i]``.

    Rows are ordered by descending dot product with the query (the cosine
    score, for unit vectors); ties break by ascending id, making the order
    total and deterministic.  ``ids`` is shared by the returned ranking.
    """
    if query.shape != matrix.shape[1:]:
        raise ValueError(f"query dimension {query.shape} != embedding dimension {matrix.shape[1:]}")
    raw = matrix @ query
    order = np.lexsort((np.asarray(ids), -raw))
    return CosineRanking(
        ids=tuple(map(ids.__getitem__, order.tolist())), scores=dict(zip(ids, raw.tolist()))
    )


def cosine_rank(embeddings: Sequence[EmbeddingRecord], query: np.ndarray) -> CosineRanking:
    """Rank all embeddings by dot-product similarity to the query: :func:`rank_rows` for one query."""
    return rank_rows(*_stack(embeddings), query)


def rank_all(embeddings: Sequence[EmbeddingRecord], spec: CurationSpec) -> dict[str, CosineRanking]:
    """One ranking per query class, in spec order; the embeddings are stacked once."""
    ids, matrix = _stack(embeddings)
    return {name: rank_rows(ids, matrix, q) for name, q in spec.queries}


def select_labeled(
    rankings: Mapping[str, CosineRanking], spec: CurationSpec
) -> dict[str, set[int]]:
    """Pick ``per_class_top`` head ids per class, discarding cross-class duplicates.

    Any id appearing in two or more selections is removed from all of them and
    each affected class refills from its next-ranked candidates, repeating until
    no conflicts remain.  Classes are processed in spec order within each round,
    and the loop is bounded at the universe size.
    """
    universes = {frozenset(rankings[name].ids) for name in spec.class_names}
    if len(universes) != 1:
        raise ValueError("rankings must cover the same embedding universe")
    universe_size = len(next(iter(universes)))

    banned: set[int] = set()
    selected: dict[str, list[int]] = {name: [] for name in spec.class_names}
    cursor: dict[str, int] = {name: 0 for name in spec.class_names}

    for _ in range(universe_size + 1):
        for name in spec.class_names:
            ids = rankings[name].ids
            sel = selected[name]
            pos = cursor[name]
            while len(sel) < spec.per_class_top and pos < len(ids):
                candidate = ids[pos]
                pos += 1
                if candidate not in banned:
                    sel.append(candidate)
            cursor[name] = pos
            if len(sel) < spec.per_class_top:
                raise ShortageError(
                    f"class {name!r} cannot reach {spec.per_class_top} ids"
                )
        counts = Counter(i for sel in selected.values() for i in sel)
        conflicted = {i for i, c in counts.items() if c >= 2}
        if not conflicted:
            return {name: set(sel) for name, sel in selected.items()}
        banned |= conflicted
        for name in spec.class_names:
            selected[name] = [i for i in selected[name] if i not in conflicted]
    raise RuntimeError("duplicate resolution did not reach a fixpoint")


def assemble_background(
    rankings: Mapping[str, CosineRanking],
    spec: CurationSpec,
    labeled: Mapping[str, set[int]],
) -> set[int]:
    """Union of each class's lowest-scoring ids, minus everything already labeled."""
    taken = set().union(*labeled.values()) if labeled else set()
    background: set[int] = set()
    for name in spec.class_names:
        ids = rankings[name].ids
        if len(ids) < spec.background_low_per_class:
            raise ShortageError(
                f"class {name!r} has only {len(ids)} ids, "
                f"needs {spec.background_low_per_class} for background"
            )
        background.update(ids[-spec.background_low_per_class :])
    return background - taken


@dataclass(frozen=True)
class CuratedDataset:
    """Final balanced selection: one id tuple per class, background last."""

    class_names: tuple[str, ...]
    selections: dict[str, tuple[int, ...]]


BACKGROUND_CLASS = "background"


def finalize_bucket(
    labeled: Mapping[str, set[int]],
    background: set[int],
    spec: CurationSpec,
    seed: int,
) -> CuratedDataset:
    """Seeded uniform subsample of ``final_per_class`` ids per class, background included."""
    pools = {name: labeled[name] for name in spec.class_names}
    pools[BACKGROUND_CLASS] = background
    rng = np.random.default_rng(seed)
    selections: dict[str, tuple[int, ...]] = {}
    for name, pool in pools.items():
        if len(pool) < spec.final_per_class:
            raise ShortageError(
                f"class {name!r} has {len(pool)} ids, needs {spec.final_per_class}"
            )
        ordered = sorted(pool)
        chosen = rng.choice(len(ordered), size=spec.final_per_class, replace=False)
        selections[name] = tuple(sorted(ordered[i] for i in chosen))
    return CuratedDataset(
        class_names=spec.class_names + (BACKGROUND_CLASS,), selections=selections
    )


def curated_samples(
    dataset: CuratedDataset,
    embeddings: Sequence[EmbeddingRecord],
    timestamps: Mapping[int, int] | None = None,
) -> list[Sample]:
    """Turn a curated selection into corpus samples (features = embedding vectors).

    Timestamps default to 0 and can be joined in via the optional mapping.
    """
    by_id = {e.id: e for e in embeddings}
    samples = []
    for label, name in enumerate(dataset.class_names):
        for rid in dataset.selections[name]:
            ts = timestamps.get(rid, 0) if timestamps else 0
            samples.append(
                Sample(id=rid, timestamp=ts, features=by_id[rid].vector, label=label)
            )
    samples.sort(key=lambda s: s.id)
    return samples


def write_class_table(path: str | Path, class_names: Sequence[str]) -> None:
    """Write the ``index<TAB>name`` table mapping label indices to class names, atomically."""
    with atomic_write(path) as fh:
        for idx, name in enumerate(class_names):
            fh.write(f"{idx}\t{name}\n")
