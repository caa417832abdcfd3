"""Line-by-line reference readers of the feature and embedding formats.

They read a file one line at a time, split as a text-mode file splits it,
and are the oracles that the array readers (``corpus.read_feature_file`` and
``matrix_curation.load_embedding_file``) are checked against: the same
arrays, or the same error type and message.  Vector values follow
``np.loadtxt``'s grammar and integers, in the header as in the records,
are ASCII ``-?[0-9]+`` within int64.  The header follows README's "Header
grammar".  The first record that does not parse on its own is reported;
only when every record parses is the first record with a negative id, a
label outside ``[0, C)`` or a repeated id reported.
"""

import math
import re

import numpy as np

from driftbench.corpus import FeatureFileError
from driftbench.curate import EmbeddingFileError


def _int64(text):
    """The int64 that ``text`` spells as ASCII ``-?[0-9]+``; ``ValueError`` otherwise, with ``int()``'s message."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    if not -(2**63) <= (value := int(text)) < 2**63:
        raise ValueError(f"integer {text} outside the int64 range")
    return value


def _parse_header(line, path, error, names):
    """The values of ``names`` in a vector file's header line.

    The header is ``#``, then whitespace-separated ``key=value`` pairs that
    hold each of ``names`` once with an integer value >= 1; other keys are
    ignored.  The first of these faults is reported: no ``#``; one of
    ``names`` given twice; a pair without ``=``, or one of ``names`` missing
    or not an integer; a value below 1.
    """
    form = "#" + " ".join(f"{name}=<{name}>" for name in names)
    if not line.startswith("#"):
        raise error(f"{path}:1: missing '{form}' header")
    pairs = [part.split("=", 1) for part in line[1:].split()]
    keys = [pair[0] for pair in pairs]
    for name in names:
        if keys.count(name) > 1:
            raise error(f"{path}:1: header key {name!r} given twice")
    fields = {pair[0]: pair[1] for pair in pairs if len(pair) == 2}
    try:
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("a pair without '='")
        values = [_int64(fields[name]) for name in names]
    except (ValueError, KeyError):
        raise error(f"{path}:1: expected header '{form}', got {line!r}") from None
    if min(values) < 1:
        raise error(f"{path}:1: {' and '.join(names)} must be >= 1")
    return values


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
            ints = [_int64(text) for text in parts[:-1]]
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
    d, c = _parse_header(_text(path, FeatureFileError, 1, header), path, FeatureFileError, ("d", "C"))
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
    (m,) = _parse_header(_text(path, EmbeddingFileError, 1, header), path, EmbeddingFileError, ("m",))
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
