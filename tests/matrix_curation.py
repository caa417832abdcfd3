"""Curation from a whole embedding matrix: the references ``driftbench curate`` is checked against.

``driftbench curate`` scores an embedding file chunk by chunk and never holds
its matrix.  These helpers load the whole matrix and curate from it, with the
same package calls: the file through ``header_ints``, ``read_records`` and
``reject_first``, the selection through ``curate_scores`` over
``curate._scores``, whose bits do not depend on which rows are scored
together.  So the command and these references must agree byte for byte.
"""

from driftbench.corpus import header_ints, named_lines, read_records, reject_first
from driftbench.curate import EmbeddingFileError, _scores, curate_scores


def load_embedding_file(path):
    """``(int64 ids, (rows, m) matrix)`` of an ``#m=<m>`` embedding file, in file order, each vector of unit L2 norm.

    A malformed file raises :class:`EmbeddingFileError` naming its first bad
    line, as ``score_embedding_file`` names it.
    """
    with open(path, "rb") as fh, named_lines(fh, EmbeddingFileError):
        (m,) = header_ints(fh, ("m",))
        (ids, starts, _), x = read_records(fh, 1, m, normalize=True)
        reject_first(starts, ids)
    return ids, x


def curate_ids(ids, matrix, spec):
    """``curate_scores`` of each query class's scores over ``matrix``, row ``i`` having id ``ids[i]``."""
    return curate_scores(ids, (_scores(matrix, q) for _, q in spec.queries), spec)

