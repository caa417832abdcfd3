"""Embedding-similarity dataset curation: cosine ranking, top-k selection with
cross-class duplicate rejection, background-class assembly, and balanced finalization."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import FieldValueError, atomic_write, checked_norm, parse_int64, parse_records


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
        for field in ("per_class_top", "background_low_per_class", "final_per_class"):
            if getattr(self, field) < 1:
                raise FieldValueError(field, "must be >= 1")
        if self.final_per_class > self.per_class_top:
            raise FieldValueError("final_per_class", "must be <= per_class_top", ("per_class_top",))

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.queries)


@dataclass(frozen=True, eq=False)
class CosineRanking:
    """Int64 ids in descending-score order (ties by ascending id) and their float64 scores."""

    ids: np.ndarray
    scores: np.ndarray

    def score(self, record_id: int) -> float:
        at = np.flatnonzero(self.ids == record_id)
        if not len(at):
            raise KeyError(record_id)
        return float(self.scores[at[0]])


def _unit(vector: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(vector)):
        raise EmbeddingFileError(f"{context}: non-finite value")
    try:
        return vector / checked_norm(vector)
    except ValueError as exc:
        raise EmbeddingFileError(f"{context}: {exc}") from exc


def _embedding_dimension(header: str, path: str) -> int:
    header = header.strip()
    if not header.startswith("#m="):
        raise EmbeddingFileError(f"{path}:1: expected '#m=<m>' header")
    try:
        return int(header[3:])
    except ValueError as exc:
        raise EmbeddingFileError(f"{path}:1: bad dimension in header") from exc


def load_embedding_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Load ``#m=<m>`` header plus ``id<TAB>v1,...,vm`` records as (int64 ids, (rows, m) matrix).

    Rows are in file order, each vector scaled to unit L2 norm.  Malformed
    records raise :class:`EmbeddingFileError` naming the line.
    """
    path = str(path)
    try:
        return _load_embedding_rows(path)
    except ValueError:
        # The line-by-line reader finds the first bad line and names it.
        return _load_embedding_lines(path)


def _load_embedding_rows(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        m = _embedding_dimension(fh.readline(), path)
        (ids,), x = parse_records(fh, 1, m, normalize=True)
    if len(np.unique(ids)) != len(ids) or (len(ids) and ids.min() < 0):
        raise ValueError("duplicate or negative id")
    return ids, x


def _load_embedding_lines(path: str) -> tuple[np.ndarray, np.ndarray]:
    rows: dict[int, np.ndarray] = {}
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
                rid = parse_int64(parts[0])
                vec = np.array([float(v) for v in parts[1].split(",")])
            except ValueError as exc:
                raise EmbeddingFileError(f"{path}:{lineno}: {exc}") from exc
            if vec.shape != (m,):
                raise EmbeddingFileError(f"{path}:{lineno}: expected {m} components")
            if rid < 0:
                raise EmbeddingFileError(f"{path}:{lineno}: id must be non-negative")
            if rid in rows:
                raise EmbeddingFileError(f"{path}:{lineno}: duplicate id {rid}")
            rows[rid] = _unit(vec, f"{path}:{lineno}")
    return np.array(list(rows), dtype=np.int64), np.array(list(rows.values())).reshape(len(rows), m)


def load_query_file(path: str | Path) -> list[tuple[str, np.ndarray]]:
    """Load ``class_name<TAB>v1,...,vm`` query lines, unit-normalizing each vector.

    A repeated class name is rejected at its line.
    """
    path = str(path)
    queries: list[tuple[str, np.ndarray]] = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise EmbeddingFileError(f"{path}:{lineno}: expected 'name<TAB>vector'")
            name = parts[0]
            if name in first_line:
                raise EmbeddingFileError(
                    f"{path}:{lineno}: duplicate class name {name!r} (first on line {first_line[name]})"
                )
            first_line[name] = lineno
            try:
                vec = np.array([float(v) for v in parts[1].split(",")])
            except ValueError as exc:
                raise EmbeddingFileError(f"{path}:{lineno}: {exc}") from exc
            queries.append((name, _unit(vec, f"{path}:{lineno}")))
    if not queries:
        raise EmbeddingFileError(f"{path}: no queries found")
    dims = {q.shape[0] for _, q in queries}
    if len(dims) != 1:
        raise EmbeddingFileError(f"{path}: inconsistent query dimensions {sorted(dims)}")
    return queries


def load_rejection_list(path: str | Path) -> set[int]:
    """One id per line; ids to drop before finalization.  An id outside int64 names its line."""
    rejected: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rejected.add(parse_int64(line))
            except ValueError as exc:
                raise EmbeddingFileError(f"{path}:{lineno}: bad id {line!r}: {exc}") from exc
    return rejected


def _stack(embeddings: Sequence[EmbeddingRecord]) -> tuple[np.ndarray, np.ndarray]:
    if not embeddings:
        raise ValueError("no embeddings to rank")
    ids = np.array([e.id for e in embeddings], dtype=np.int64)
    return ids, np.stack([e.vector for e in embeddings])


def rank_rows(ids: np.ndarray, matrix: np.ndarray, query: np.ndarray) -> CosineRanking:
    """Rank the rows of a stacked ``(U, m)`` embedding matrix, row ``i`` having id ``ids[i]``.

    Rows are ordered by descending dot product with the query (the cosine
    score, for unit vectors); ties break by ascending id, making the order
    total and deterministic.  ``ids`` is taken as an int64 vector.
    """
    if query.shape != matrix.shape[1:]:
        raise ValueError(f"query dimension {query.shape} != embedding dimension {matrix.shape[1:]}")
    ids = np.asarray(ids, dtype=np.int64)
    raw = matrix @ query
    order = np.lexsort((ids, -raw))
    return CosineRanking(ids=ids[order], scores=raw[order])


def cosine_rank(embeddings: Sequence[EmbeddingRecord], query: np.ndarray) -> CosineRanking:
    """Rank all embeddings by dot-product similarity to the query: :func:`rank_rows` for one query."""
    return rank_rows(*_stack(embeddings), query)


def rank_all(embeddings: Sequence[EmbeddingRecord], spec: CurationSpec) -> dict[str, CosineRanking]:
    """One ranking per query class, in spec order; the embeddings are stacked once."""
    ids, matrix = _stack(embeddings)
    return {name: rank_rows(ids, matrix, q) for name, q in spec.queries}


def _ranked_positions(
    rankings: Mapping[str, CosineRanking], names: Sequence[str]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted id universe, and each ranking as positions into it; each holds every id once."""
    universe = None
    for name in names:
        ids = np.sort(rankings[name].ids)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise ValueError(f"ranking {name!r} repeats id {repeated[0]}")
        if universe is None:
            universe = ids
        elif not np.array_equal(ids, universe):
            raise ValueError("rankings must cover the same embedding universe")
    return universe, [np.searchsorted(universe, rankings[name].ids) for name in names]


def select_labeled(
    rankings: Mapping[str, CosineRanking], spec: CurationSpec
) -> dict[str, set[int]]:
    """Pick ``per_class_top`` head ids per class, discarding cross-class duplicates.

    Any id appearing in two or more selections is removed from all of them and
    each affected class refills from its next-ranked candidates, repeating until
    no conflicts remain.  Classes are processed in spec order within each round,
    and the loop is bounded at the universe size.  A ranking that repeats an id
    is rejected.
    """
    names = spec.class_names
    universe, ranked = _ranked_positions(rankings, names)
    banned = np.zeros(len(universe), dtype=bool)
    selected = [np.zeros(0, dtype=np.intp) for _ in names]
    cursor = [0] * len(names)

    for _ in range(len(universe) + 1):
        for k, name in enumerate(names):
            need = spec.per_class_top - len(selected[k])
            if not need:
                continue
            tail = ranked[k][cursor[k] :]
            # The next `need` unbanned candidates; the cursor moves past the last one taken.
            take = np.flatnonzero(~banned[tail])[:need]
            if len(take) < need:
                raise ShortageError(
                    f"class {name!r} cannot reach {spec.per_class_top} ids"
                )
            selected[k] = np.concatenate([selected[k], tail[take]])
            cursor[k] += int(take[-1]) + 1
        conflicted = np.bincount(np.concatenate(selected), minlength=len(universe)) >= 2
        if not conflicted.any():
            return {name: set(universe[sel].tolist()) for name, sel in zip(names, selected)}
        banned |= conflicted
        selected = [sel[~conflicted[sel]] for sel in selected]
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
        background.update(ids[-spec.background_low_per_class :].tolist())
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


def curated_rows(dataset: CuratedDataset, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The curated selection as (rows, labels): embedding-matrix rows in ascending-id order.

    Row ``r`` holds id ``ids[r]``; label ``k`` is ``dataset.class_names[k]``.
    """
    names = dataset.class_names
    chosen = np.array([rid for name in names for rid in dataset.selections[name]], dtype=np.int64)
    labels = np.repeat(np.arange(len(names)), [len(dataset.selections[name]) for name in names])
    by_id = np.argsort(chosen, kind="stable")
    sorter = np.argsort(ids)
    return sorter[np.searchsorted(ids, chosen[by_id], sorter=sorter)], labels[by_id]


def write_class_table(path: str | Path, class_names: Sequence[str]) -> None:
    """Write the ``index<TAB>name`` table mapping label indices to class names, atomically."""
    with atomic_write(path) as fh:
        for idx, name in enumerate(class_names):
            fh.write(f"{idx}\t{name}\n")
