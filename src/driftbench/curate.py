"""Embedding-similarity dataset curation: cosine ranking, top-k selection with
cross-class duplicate rejection, background-class assembly, and balanced finalization."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .corpus import (FieldValueError, FileRows, atomic_write, header_ints, line_reason, named_lines,
                     parse_int64, read_records, read_text, reject_first, text_lines, unit_rows)


class ShortageError(ValueError):
    """A class ran out of candidate ids before reaching its required count."""


class EmbeddingFileError(ValueError):
    """Raised when an embedding or query file is malformed; names the offending line."""


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    """One id plus its unit-L2-norm vector."""

    id: int
    vector: np.ndarray


# The class finalize_bucket adds after the query classes; no query class may take its name.
BACKGROUND_CLASS = "background"


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
        if BACKGROUND_CLASS in names:
            raise ValueError(f"query class name {BACKGROUND_CLASS!r} is the background class's")
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


def embedding_dimension(path: str | Path) -> int:
    """The ``m`` of an embedding file's ``#m=<m>`` header, read without its records."""
    with open(path, "rb") as fh, named_lines(fh, EmbeddingFileError):
        return header_ints(fh, ("m",))[0]


def score_embedding_file(fh: BinaryIO, spec: CurationSpec) -> tuple[np.ndarray, Iterable[np.ndarray], FileRows]:
    """Score the embedding file open as ``fh`` against each query class without its matrix: ``(ids, scores, x)``.

    ``fh`` is binary and holds an ``#m=<m>`` header, then
    ``id<TAB>v1,...,vm`` records, each vector scaled to unit L2 norm before
    it is scored.  ``scores`` yields each class's score vector in spec order,
    as :func:`curate_scores` takes them.  The records are parsed by
    :func:`~driftbench.corpus.read_records`, which scores each chunk's matrix
    and drops it.  ``x``, for :func:`~driftbench.corpus.write_feature_file`,
    is a :class:`~driftbench.corpus.FileRows` that parses the selected
    records again from their byte spans through ``fh`` while it is open.  A
    malformed file raises :class:`EmbeddingFileError` naming its first bad
    line: the first record that does not parse, else the first that
    :func:`~driftbench.corpus.reject_first` rejects (a negative or repeated
    id); no embedding matrix is built.
    """
    queries = [q for _, q in spec.queries]
    with named_lines(fh, EmbeddingFileError):
        (m,) = header_ints(fh, ("m",))
        ints, scores = read_records(fh, 1, m, True, lambda x: np.column_stack([_scores(x, q) for q in queries]))
        reject_first(ints[1], ints[0])
    return ints[0], scores.T, FileRows(fh, ints[0], ints[1:], 1, m, normalize=True)


def load_query_file(path: str | Path) -> list[tuple[str, np.ndarray]]:
    """Load ``class_name<TAB>v1,...,vm`` query lines, unit-normalizing each vector by :func:`~driftbench.corpus.unit_rows`.

    The values follow ``np.loadtxt``'s grammar, as the vector files' do.  A
    repeated class name, or the background class's, is rejected at its line.
    """
    queries: list[tuple[str, np.ndarray]] = []
    first_line: dict[str, int] = {}
    for lineno, line in text_lines(read_text(path, EmbeddingFileError)):
        line = line.strip()
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise EmbeddingFileError(f"{path}:{lineno}: expected 'name<TAB>vector'")
        name = parts[0]
        if name in first_line:
            raise EmbeddingFileError(
                f"{path}:{lineno}: duplicate class name {name!r} (first on line {first_line[name]})"
            )
        if name == BACKGROUND_CLASS:
            raise EmbeddingFileError(f"{path}:{lineno}: class name {name!r} is the background class's")
        first_line[name] = lineno
        try:
            queries.append((name, unit_rows(np.loadtxt([parts[1]], delimiter=",", comments=None, ndmin=2))[0]))
        except ValueError as exc:
            raise EmbeddingFileError(f"{path}:{lineno}: {line_reason(exc)}") from exc
    if not queries:
        raise EmbeddingFileError(f"{path}: no queries found")
    dims = {q.shape[0] for _, q in queries}
    if len(dims) != 1:
        raise EmbeddingFileError(f"{path}: inconsistent query dimensions {sorted(dims)}")
    return queries


def load_rejection_list(path: str | Path) -> set[int]:
    """One id per line; ids to drop before finalization.  An id outside int64 names its line."""
    rejected: set[int] = set()
    for lineno, line in text_lines(read_text(path, EmbeddingFileError)):
        line = line.strip()
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


# Values multiplied at a time by _scores: 256 KiB of temporaries.
SCORE_BLOCK_VALUES = 1 << 15


def _scores(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Each row's dot product with the query: the cosine score, for unit vectors.

    numpy sums each row's products in its own fixed order, so a score's bits
    depend neither on the BLAS kernel nor on which rows are scored together;
    ``matrix @ query`` would differ in the last bit under some kernels.
    """
    if query.shape != matrix.shape[1:]:
        raise ValueError(f"query dimension {query.shape} != embedding dimension {matrix.shape[1:]}")
    scores = np.empty(len(matrix))
    step = max(1, SCORE_BLOCK_VALUES // max(1, len(query)))
    for start in range(0, len(matrix), step):
        scores[start : start + step] = np.add.reduce(matrix[start : start + step] * query, axis=1)
    return scores


def rank_rows(ids: np.ndarray, matrix: np.ndarray, query: np.ndarray) -> CosineRanking:
    """Rank the rows of a stacked ``(U, m)`` embedding matrix, row ``i`` having id ``ids[i]``.

    Rows are ordered by descending dot product with the query (the cosine
    score, for unit vectors); ties break by ascending id, making the order
    total and deterministic.  ``ids`` is taken as an int64 vector.
    """
    raw = _scores(matrix, query)
    ids = np.asarray(ids, dtype=np.int64)
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
    universe, positions = None, []
    for name in names:
        ids = rankings[name].ids
        by_id = np.argsort(ids)
        sorted_ids = ids[by_id]
        repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if len(repeated):
            raise ValueError(f"ranking {name!r} repeats id {repeated[0]}")
        if universe is None:
            universe = sorted_ids
        elif not np.array_equal(sorted_ids, universe):
            raise ValueError("rankings must cover the same embedding universe")
        position = np.empty(len(ids), dtype=np.intp)
        position[by_id] = np.arange(len(ids))
        positions.append(position)
    return universe, positions


def _select_positions(
    universe: np.ndarray, positions: Sequence[np.ndarray], spec: CurationSpec
) -> dict[str, set[int]]:
    """:func:`select_labeled` over each class's ranking as positions into the sorted universe."""
    names = spec.class_names
    banned = np.zeros(len(universe), dtype=bool)
    selected = [np.zeros(0, dtype=np.intp) for _ in names]
    cursor = [0] * len(names)

    for _ in range(len(universe) + 1):
        n_banned = int(np.count_nonzero(banned))
        for k, name in enumerate(names):
            need = spec.per_class_top - len(selected[k])
            if not need:
                continue
            # At most n_banned of these positions are banned (a ranking holds each once), so
            # the window holds the next `need` unbanned candidates whenever the whole tail does.
            window = positions[k][cursor[k] : cursor[k] + need + n_banned]
            take = np.flatnonzero(~banned[window])[:need]
            if len(take) < need:
                raise ShortageError(
                    f"class {name!r} cannot reach {spec.per_class_top} ids"
                )
            selected[k] = np.concatenate([selected[k], window[take]])
            cursor[k] += int(take[-1]) + 1
        conflicted = np.bincount(np.concatenate(selected), minlength=len(universe)) >= 2
        if not conflicted.any():
            return {name: set(universe[sel].tolist()) for name, sel in zip(names, selected)}
        banned |= conflicted
        selected = [sel[~conflicted[sel]] for sel in selected]
    raise RuntimeError("duplicate resolution did not reach a fixpoint")


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
    return _select_positions(*_ranked_positions(rankings, spec.class_names), spec)


def _lowest(name: str, ranked: np.ndarray, spec: CurationSpec) -> np.ndarray:
    """The last ``background_low_per_class`` entries of a class's ranking."""
    if len(ranked) < spec.background_low_per_class:
        raise ShortageError(
            f"class {name!r} has only {len(ranked)} ids, "
            f"needs {spec.background_low_per_class} for background"
        )
    return ranked[-spec.background_low_per_class :]


def assemble_background(
    rankings: Mapping[str, CosineRanking],
    spec: CurationSpec,
    labeled: Mapping[str, set[int]],
) -> set[int]:
    """Union of each class's lowest-scoring ids, minus everything already labeled."""
    lowest = [_lowest(name, rankings[name].ids, spec) for name in spec.class_names]
    return set(np.concatenate(lowest).tolist()).difference(*labeled.values())


def curate_scores(
    ids: np.ndarray, scores: Iterable[np.ndarray], spec: CurationSpec
) -> tuple[dict[str, set[int]], set[int]]:
    """:func:`select_labeled` and :func:`assemble_background` of the rankings by each class's scores.

    ``scores`` yields one score vector per query class, in spec order, entry
    ``i`` scoring id ``ids[i]``; a ``(classes, ids)`` matrix will do.  Each
    class's ranking is its positions into the sorted ids, which must not
    repeat; a stable sort by score breaks ties by position, that is by id.
    Positions are int32 below 2**31 ids.
    """
    by_id = np.argsort(ids)
    universe = ids[by_id]
    kind = np.int32 if len(ids) < 2**31 else np.intp
    positions = [np.argsort(-s[by_id], kind="stable").astype(kind) for s in scores]
    labeled = _select_positions(universe, positions, spec)
    lowest = [_lowest(name, pos, spec) for name, pos in zip(spec.class_names, positions)]
    return labeled, set(universe[np.concatenate(lowest)].tolist()).difference(*labeled.values())


@dataclass(frozen=True)
class CuratedDataset:
    """Final balanced selection: one id tuple per class, background last."""

    class_names: tuple[str, ...]
    selections: dict[str, tuple[int, ...]]


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
