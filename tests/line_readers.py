"""Line-by-line reference readers of the feature and embedding formats.

They read a file one line at a time, split as a text-mode file splits it,
and are the oracles that the array readers (``corpus.read_feature_file`` and
``matrix_curation.load_embedding_file``) are checked against: the same
arrays, or the same error type and message.  Vector values follow
``np.loadtxt``'s grammar and integer fields ``int()``'s, within int64.  The first record that does not
parse on its own is reported; only when every record parses is the first
record with a negative id, a label outside ``[0, C)`` or a repeated id
reported.
"""

import math

import numpy as np

from driftbench.corpus import FeatureFileError, parse_int64
from driftbench.curate import EmbeddingFileError


def _parse_header(line, path):
    """``(d, C)`` of a feature file's ``#d=<d> C=<C>`` header line."""
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


def _text(path, error, lineno, raw):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}:{lineno}: {exc}") from None


def _lines(path):
    """The file's lines with their ends kept, split at LF, CRLF and a lone CR; the header line first."""
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends=True) or [b""]


def _records(path, error, lines, n_ints, k, normalize):
    """Each record's (line number, integer fields, vector) from the lines after the header, as each line alone parses."""
    records = []
    for lineno, raw in enumerate(lines, start=2):
        line = _text(path, error, lineno, raw).strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != n_ints + 1:
            raise error(f"{path}:{lineno}: expected {n_ints + 1} tab-separated fields")
        try:
            ints = [parse_int64(text) for text in parts[:-1]]
            vector = np.loadtxt([parts[-1]], delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:  # numpy counts rows of the one-line parse; only the column is kept
            raise error(f"{path}:{lineno}: {str(exc).replace(' at row 0, column ', ' at column ')}") from exc
        if vector.shape != (k,):
            raise error(f"{path}:{lineno}: expected {k} components, got {len(vector)}")
        if not np.all(np.isfinite(vector)):
            raise error(f"{path}:{lineno}: non-finite value")
        if normalize:
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(vector))
            if norm == 0.0:
                raise error(f"{path}:{lineno}: zero vector cannot be normalized")
            if norm == math.inf:
                raise error(f"{path}:{lineno}: squared norm overflows; vector cannot be normalized")
            vector = vector / norm
        records.append((lineno, ints, vector))
    return records


def load_feature_lines(path, normalize=False):
    """``read_feature_file(path, normalize)``, a line at a time."""
    path = str(path)
    header, *lines = _lines(path)
    d, c = _parse_header(_text(path, FeatureFileError, 1, header), path)
    records = _records(path, FeatureFileError, lines, 3, d, normalize)
    seen = set()
    for lineno, (sid, _, label), _ in records:
        if sid < 0:
            raise FeatureFileError(f"{path}:{lineno}: id must be non-negative")
        if not 0 <= label < c:
            raise FeatureFileError(f"{path}:{lineno}: label {label} outside [0, {c})")
        if sid in seen:
            raise FeatureFileError(f"{path}:{lineno}: duplicate id {sid}")
        seen.add(sid)
    ids, timestamps, labels = np.array([ints for _, ints, _ in records], dtype=np.int64).reshape(-1, 3).T.copy()
    return ids, timestamps, labels, np.array([row for *_, row in records]).reshape(len(records), d), c


def load_embedding_lines(path):
    """``load_embedding_file(path)``, a line at a time."""
    path = str(path)
    header, *lines = _lines(path)
    header = _text(path, EmbeddingFileError, 1, header).strip()
    if not header.startswith("#m="):
        raise EmbeddingFileError(f"{path}:1: expected '#m=<m>' header")
    try:
        m = int(header[3:])
    except ValueError as exc:
        raise EmbeddingFileError(f"{path}:1: bad dimension in header") from exc
    if m < 1:
        raise EmbeddingFileError(f"{path}:1: m must be >= 1")
    records = _records(path, EmbeddingFileError, lines, 1, m, True)
    seen = set()
    for lineno, (rid,), _ in records:
        if rid < 0:
            raise EmbeddingFileError(f"{path}:{lineno}: id must be non-negative")
        if rid in seen:
            raise EmbeddingFileError(f"{path}:{lineno}: duplicate id {rid}")
        seen.add(rid)
    ids = np.array([rid for _, (rid,), _ in records], dtype=np.int64)
    return ids, np.array([row for *_, row in records]).reshape(len(records), m)
