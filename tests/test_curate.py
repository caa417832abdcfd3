import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftbench.corpus as corpus_module
import driftbench.curate as curate_module
from driftbench.cli import main
from driftbench.curate import (
    BACKGROUND_CLASS,
    CurationSpec,
    EmbeddingFileError,
    EmbeddingRecord,
    ShortageError,
    assemble_background,
    cosine_rank,
    curate_ids,
    curated_rows,
    embedding_dimension,
    finalize_bucket,
    load_embedding_file,
    load_query_file,
    load_rejection_list,
    rank_all,
    rank_rows,
    score_embedding_file,
    select_labeled,
    write_class_table,
)
from line_readers import load_embedding_lines


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_embeddings(n, m, seed=0):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, m))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return [EmbeddingRecord(id=i, vector=vecs[i]) for i in range(n)]


def five_id_universe():
    # id 2 tops both rankings; the others split cleanly between the two classes.
    vectors = {
        0: unit([0.6, -0.8]),
        1: unit([0.5, -0.866]),
        2: unit([1.0, 1.0]),
        3: unit([-0.8, 0.6]),
        4: unit([-0.866, 0.5]),
    }
    embeddings = [EmbeddingRecord(id=i, vector=vectors[i]) for i in sorted(vectors)]
    queries = (("a", unit([1.0, 0.0])), ("b", unit([0.0, 1.0])))
    return embeddings, queries


class TestCosineRank:
    def test_self_similarity_first(self):
        embeddings = random_embeddings(50, 8, seed=1)
        query = embeddings[17].vector
        ranking = cosine_rank(embeddings, query)
        assert ranking.ids[0] == 17
        assert ranking.score(17) == pytest.approx(1.0)

    def test_orthogonal_scores_zero(self):
        embeddings = [EmbeddingRecord(id=0, vector=np.array([1.0, 0.0]))]
        ranking = cosine_rank(embeddings, np.array([0.0, 1.0]))
        assert ranking.score(0) == pytest.approx(0.0)

    def test_matches_brute_force_sort(self):
        embeddings = random_embeddings(1000, 16, seed=2)
        query = unit(np.arange(16) - 7.5)
        ranking = cosine_rank(embeddings, query)
        scores = {e.id: float(e.vector @ query) for e in embeddings}
        expected = [i for i, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]
        assert list(ranking.ids) == expected

    def test_ties_break_by_ascending_id(self):
        v = unit([1.0, 1.0])
        embeddings = [EmbeddingRecord(id=i, vector=v.copy()) for i in (5, 1, 3)]
        ranking = cosine_rank(embeddings, unit([1.0, 0.0]))
        assert list(ranking.ids) == [1, 3, 5]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"query dimension \(5,\) != embedding dimension \(4,\)"):
            cosine_rank(random_embeddings(3, 4), np.zeros(5))
        spec = CurationSpec(
            queries=(("a", unit([1, 0, 0, 0])), ("b", np.zeros(5))),
            per_class_top=1, background_low_per_class=1, final_per_class=1,
        )
        with pytest.raises(ValueError, match="query dimension"):
            rank_all(random_embeddings(3, 4), spec)

    def test_no_embeddings(self):
        spec = CurationSpec(
            queries=(("a", unit([1, 0])),), per_class_top=1, background_low_per_class=1,
            final_per_class=1,
        )
        with pytest.raises(ValueError, match="no embeddings to rank"):
            cosine_rank([], unit([1, 0]))
        with pytest.raises(ValueError, match="no embeddings to rank"):
            rank_all([], spec)

    def test_rank_all_matches_sorted_reference(self):
        # Exact ties (repeated vectors under shuffled ids), zero scores from
        # signed-zero components, and a zero-containing query.
        rng = np.random.default_rng(4)
        base = rng.standard_normal((40, 3))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        zeros = np.array([[-0.0, 1.0, -0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-0.0, 0.0, -1.0]])
        vectors = np.concatenate([base, base[:15], zeros, zeros])
        ids = rng.permutation(10**6)[: len(vectors)].tolist()
        embeddings = [EmbeddingRecord(id=i, vector=v) for i, v in zip(ids, vectors)]
        queries = tuple((f"q{c}", q) for c, q in enumerate(
            [unit([1.0, -0.0, 0.0]), -unit([1.0, 0.0, 0.0]), *base[:3]]
        ))
        spec = CurationSpec(queries=queries, per_class_top=1, background_low_per_class=1,
                            final_per_class=1)
        rankings = rank_all(embeddings, spec)
        assert list(rankings) == [name for name, _ in queries]
        for name, query in queries:
            raw = curate_module._scores(np.stack(vectors), query)
            order = sorted(range(len(ids)), key=lambda i: (-raw[i], ids[i]))
            ranking = rankings[name]
            # Bytes, so that dtypes and the sign of a zero score count too.
            assert ranking.ids.tobytes() == np.array([ids[i] for i in order], dtype=np.int64).tobytes()
            assert [float(v).hex() for v in ranking.scores] == [float(raw[i]).hex() for i in order]
            assert [ranking.score(i).hex() for i in ids] == [float(r).hex() for r in raw]
            again = cosine_rank(embeddings, query)
            assert (again.ids.tobytes(), again.scores.tobytes()) == (
                ranking.ids.tobytes(), ranking.scores.tobytes()
            )
        # Zero scores tie, and ties list the lower id first.
        zero_ids = [i for i, v in zip(ids, vectors) if v[0] == 0.0]
        first = rankings["q0"].ids.tolist()
        assert [i for i in first if i in set(zero_ids)] == sorted(zero_ids)

    def test_rank_rows_returns_id_and_score_vectors(self):
        # Ids 7 and 5 tie at score 0, so the lower id comes first.
        ranking = rank_rows(np.array([7, 3, 5]), np.eye(3), np.array([0.0, 1.0, 0.0]))
        assert ranking.ids.tobytes() == np.array([3, 5, 7], dtype=np.int64).tobytes()
        assert ranking.scores.tobytes() == np.array([1.0, 0.0, 0.0]).tobytes()
        assert ranking.score(7) == 0.0
        with pytest.raises(KeyError):
            ranking.score(4)

    def test_rank_rows_allocates_a_few_words_per_id(self):
        # Beyond the (U,) product, the negated scores, the order and the two
        # ranked vectors: no per-id Python object.
        n = 50_000
        rng = np.random.default_rng(12)
        ids = rng.permutation(n).astype(np.int64) * 7919 + 10**12
        x = rng.standard_normal((n, 8))
        query = unit(np.arange(8.0))
        tracemalloc.start()
        try:
            ranking = rank_rows(ids, x, query)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        word = 8 * n
        assert peak <= word + 4 * word, f"peak {peak / n:.1f} bytes per id"
        assert held <= 2 * word + 4096, f"held {held / n:.1f} bytes per id"
        assert isinstance(ranking.ids, np.ndarray) and ranking.ids.dtype == np.int64
        assert isinstance(ranking.scores, np.ndarray) and ranking.scores.dtype == np.float64


# Prints the digest of curate._scores on a fixed 6,000 x 64 matrix of unit rows.
SCORES_DIGEST = """
import hashlib
import numpy as np
from driftbench.curate import _scores
rng = np.random.default_rng(5)
matrix = rng.standard_normal((6000, 64))
matrix /= np.sqrt(np.add.reduce(matrix * matrix, axis=1))[:, None]
print(hashlib.sha256(_scores(matrix, 0.6 * matrix[0] + 0.8 * matrix[1]).tobytes()).hexdigest())
"""


def test_scores_do_not_depend_on_the_blas_kernel():
    # OpenBLAS built with DYNAMIC_ARCH picks its kernel when it loads, and
    # OPENBLAS_CORETYPE forces one; matrix @ query differs in the last bit
    # between some of these.
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no kernel can be forced: {blas}")
    src = str(Path(curate_module.__file__).parents[1])
    digests = {}
    for core in ("SkylakeX", "Haswell", "Prescott"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", SCORES_DIGEST], env=env, capture_output=True, text=True, check=True)
        digests[core] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def outputs_under_each_blas_kernel(script):
    """``script``'s stdout in a Python subprocess under each OpenBLAS kernel that ``OPENBLAS_CORETYPE`` forces, by kernel.

    Skips the calling test, saying why, when numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so no kernel can be forced: {blas}")
    src = str(Path(curate_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return {core: subprocess.run([sys.executable, "-c", script], env={**env, "OPENBLAS_CORETYPE": core},
                                 capture_output=True, text=True, check=True).stdout.strip()
            for core in ("SkylakeX", "Haswell", "Prescott")}


# Prints how many query-like vectors, each passed as a one-row matrix as
# load_query_file passes it, unit_rows scales to other bits than v / norm(v).
UNIT_ROWS_MISMATCHES = """
import numpy as np
from driftbench.corpus import unit_rows
rng = np.random.default_rng(11)
vectors = [rng.standard_normal(m) * scale for m in (2, 3, 7, 16, 63, 64, 100, 128, 512)
           for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150) for _ in range(20)]
print(sum(not np.array_equal(unit_rows(v[None].copy())[0], v / np.linalg.norm(v)) for v in vectors))
"""


def test_unit_rows_matches_the_query_norm_under_every_blas_kernel():
    # unit_rows' vecdot and np.linalg.norm each compute one ddot, so they agree bit for bit under any kernel.
    mismatches = outputs_under_each_blas_kernel(UNIT_ROWS_MISMATCHES)
    assert set(mismatches.values()) == {"0"}, mismatches


class TestSelectLabeled:
    def test_disjoint_top_lists_taken_verbatim(self):
        vecs = [unit([1, 0.1 * i]) for i in range(3)] + [unit([-1, 0.1 * i]) for i in range(3)]
        embeddings = [EmbeddingRecord(id=i, vector=vecs[i]) for i in range(6)]
        spec = CurationSpec(
            queries=(("pos", unit([1, 0])), ("neg", unit([-1, 0]))),
            per_class_top=3,
            background_low_per_class=1,
            final_per_class=3,
        )
        labeled = select_labeled(rank_all(embeddings, spec), spec)
        assert labeled["pos"] == {0, 1, 2}
        assert labeled["neg"] == {3, 4, 5}

    def test_hand_traced_discard_and_replace(self):
        # Conflicted id 2 is banned from both classes; each refills from its
        # next-ranked candidate: a -> {0, 1}, b -> {3, 4}.
        embeddings, queries = five_id_universe()
        spec = CurationSpec(
            queries=queries, per_class_top=2, background_low_per_class=1, final_per_class=2
        )
        rankings = rank_all(embeddings, spec)
        assert rankings["a"].ids[0] == 2 and rankings["b"].ids[0] == 2
        labeled = select_labeled(rankings, spec)
        assert labeled == {"a": {0, 1}, "b": {3, 4}}

    def test_pairwise_disjoint(self):
        embeddings = random_embeddings(1000, 6, seed=3)
        eye = np.eye(6)
        queries = tuple((f"c{i}", eye[i]) for i in range(4))
        spec = CurationSpec(
            queries=queries, per_class_top=40, background_low_per_class=10, final_per_class=20
        )
        labeled = select_labeled(rank_all(embeddings, spec), spec)
        names = list(labeled)
        for i, a in enumerate(names):
            assert len(labeled[a]) == 40
            for b in names[i + 1 :]:
                assert not (labeled[a] & labeled[b])

    def test_idempotent_on_own_output(self):
        embeddings, queries = five_id_universe()
        spec = CurationSpec(
            queries=queries, per_class_top=2, background_low_per_class=1, final_per_class=2
        )
        labeled = select_labeled(rank_all(embeddings, spec), spec)
        kept = set().union(*labeled.values())
        sub = [e for e in embeddings if e.id in kept]
        again = select_labeled(rank_all(sub, spec), spec)
        assert again == labeled

    def test_shortage_names_class(self):
        embeddings, queries = five_id_universe()
        spec = CurationSpec(
            queries=queries, per_class_top=3, background_low_per_class=1, final_per_class=3
        )
        with pytest.raises(ShortageError, match="'a'|'b'"):
            select_labeled(rank_all(embeddings, spec), spec)

    def test_mismatched_universes_rejected(self):
        embeddings, queries = five_id_universe()
        spec = CurationSpec(
            queries=queries, per_class_top=2, background_low_per_class=1, final_per_class=2
        )
        rankings = {
            "a": cosine_rank(embeddings, queries[0][1]),
            "b": cosine_rank(embeddings[:-1], queries[1][1]),
        }
        with pytest.raises(ValueError, match="universe"):
            select_labeled(rankings, spec)

    def test_repeated_id_rejected(self):
        # Positions into one id universe need each id once per ranking.
        spec = CurationSpec(
            queries=(("a", unit([1, 0])), ("b", unit([0, 1]))),
            per_class_top=1, background_low_per_class=1, final_per_class=1,
        )
        rankings = {
            "a": rank_rows(np.array([1, 2, 3]), np.eye(3)[:, :2], unit([1, 0])),
            "b": rank_rows(np.array([1, 3, 3, 2]), np.eye(4)[:, :2], unit([0, 1])),
        }
        with pytest.raises(ValueError, match="ranking 'b' repeats id 3"):
            select_labeled(rankings, spec)


class TestBackground:
    def test_bottom_k_single_class(self):
        embeddings = random_embeddings(100, 4, seed=5)
        query = unit([1, 0, 0, 0])
        spec = CurationSpec(
            queries=(("only", query),), per_class_top=10, background_low_per_class=60,
            final_per_class=10,
        )
        ranking = cosine_rank(embeddings, query)
        background = assemble_background({"only": ranking}, spec, {"only": set()})
        assert background == set(ranking.ids[-60:])

    def test_disjoint_from_labeled(self):
        embeddings = random_embeddings(600, 5, seed=6)
        eye = np.eye(5)
        queries = tuple((f"c{i}", eye[i]) for i in range(3))
        spec = CurationSpec(
            queries=queries, per_class_top=30, background_low_per_class=50, final_per_class=20
        )
        rankings = rank_all(embeddings, spec)
        labeled = select_labeled(rankings, spec)
        background = assemble_background(rankings, spec, labeled)
        assert background
        for ids in labeled.values():
            assert not (background & ids)

    def test_shared_bottoms_collapse(self):
        # Two identical queries share their bottom set: the union stays at 60.
        embeddings = random_embeddings(100, 4, seed=8)
        q = unit([1, 0, 0, 0])
        spec = CurationSpec(
            queries=(("x", q), ("y", q)), per_class_top=5, background_low_per_class=60,
            final_per_class=5,
        )
        rankings = rank_all(embeddings, spec)
        background = assemble_background(rankings, spec, {"x": set(), "y": set()})
        assert len(background) == 60

    def test_shortage(self):
        embeddings = random_embeddings(10, 4, seed=9)
        q = unit([1, 0, 0, 0])
        spec = CurationSpec(
            queries=(("x", q),), per_class_top=5, background_low_per_class=60, final_per_class=5
        )
        with pytest.raises(ShortageError):
            assemble_background({"x": cosine_rank(embeddings, q)}, spec, {"x": set()})


class TestFinalize:
    def spec(self, final=3):
        _, queries = five_id_universe()
        return CurationSpec(
            queries=queries, per_class_top=5, background_low_per_class=1, final_per_class=final
        )

    def test_exact_count_taken_verbatim(self):
        spec = self.spec(final=3)
        labeled = {"a": {1, 2, 3}, "b": {4, 5, 6}}
        out = finalize_bucket(labeled, {7, 8, 9}, spec, seed=0)
        assert out.selections["a"] == (1, 2, 3)
        assert out.selections[BACKGROUND_CLASS] == (7, 8, 9)

    def test_deterministic_and_balanced(self):
        spec = self.spec(final=2)
        labeled = {"a": {1, 2, 3, 4}, "b": {5, 6, 7, 8}}
        one = finalize_bucket(labeled, {10, 11, 12}, spec, seed=42)
        two = finalize_bucket(labeled, {10, 11, 12}, spec, seed=42)
        assert one.selections == two.selections
        assert all(len(ids) == 2 for ids in one.selections.values())
        assert one.class_names == ("a", "b", BACKGROUND_CLASS)

    def test_shortage(self):
        spec = self.spec(final=3)
        with pytest.raises(ShortageError, match="background"):
            finalize_bucket({"a": {1, 2, 3}, "b": {4, 5, 6}}, {9}, spec, seed=0)


class TestFiles:
    def test_embedding_roundtrip(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("#m=2\n0\t3.0,4.0\n1\t0.0,2.0\n")
        ids, x = load_embedding_file(p)
        assert ids.tolist() == [0, 1] and ids.dtype == np.int64
        assert np.allclose(x, [[0.6, 0.8], [0.0, 1.0]])

    def test_embedding_errors(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("#m=2\n0\t0.0,0.0\n")
        with pytest.raises(EmbeddingFileError, match="zero vector"):
            load_embedding_file(p)
        p.write_text("#m=2\n0\t1.0\n")
        with pytest.raises(EmbeddingFileError, match=":2"):
            load_embedding_file(p)
        p.write_text("0\t1.0,2.0\n")
        with pytest.raises(EmbeddingFileError, match="header"):
            load_embedding_file(p)
        p.write_text("#m=2\n0\t1.0,2.0\n0\t2.0,1.0\n")
        with pytest.raises(EmbeddingFileError, match="duplicate"):
            load_embedding_file(p)
        p.write_text(f"#m=2\n0\t1.0,2.0\n{2**70}\t2.0,1.0\n")
        with pytest.raises(EmbeddingFileError, match=r"emb\.tsv:3: integer \d+ outside the int64 range"):
            load_embedding_file(p)
        p.write_text("#m=2\n0\t1.0,2.0\n-3\t2.0,1.0\n")
        with open(p, "rb") as fh, pytest.raises(ValueError):
            score_embedding_file(fh, CurationSpec((("a", unit([1.0, 0.0])),), 1, 1, 1))
        with pytest.raises(EmbeddingFileError, match=r"emb\.tsv:3: id must be non-negative"):
            load_embedding_file(p)

    def test_well_formed_embedding_file_is_read_as_arrays(self, tmp_path, monkeypatch):
        # A well-formed file is parsed once: parsing it again a line at a time would keep results and lose the speed.
        p = tmp_path / "emb.tsv"
        rows = np.column_stack([np.arange(50), np.random.default_rng(3).standard_normal((50, 6))])
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("#m=6\n\n")
            np.savetxt(fh, rows, fmt="%d\t" + ",".join(["%.6f"] * 6))
        expected = load_embedding_lines(str(p))

        def no_fallback(fd, start, stop, n_ints, k, normalize):
            raise AssertionError(f"bytes {start}:{stop} were parsed again a line at a time")

        monkeypatch.setattr(corpus_module, "record_fault", no_fallback)
        ids, x = load_embedding_file(p)
        assert (ids.dtype, ids.tobytes()) == (expected[0].dtype, expected[0].tobytes())
        assert (x.shape, x.tobytes()) == (expected[1].shape, expected[1].tobytes())
        p.write_text("#m=6\n\n")
        ids, x = load_embedding_file(p)
        assert (ids.shape, ids.dtype, x.shape) == ((0,), np.int64, (0, 6))

    @pytest.mark.parametrize("line", [1, 3])
    def test_a_byte_that_is_not_utf8_is_named_by_its_line(self, tmp_path, line):
        lines = [b"#m=2", b"0\t1.0,2.0", b"1\t3.0,4.0"]
        lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
        p = tmp_path / "emb.tsv"
        p.write_bytes(b"\r\n".join(lines))
        message = rf"emb\.tsv:{line}: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(EmbeddingFileError, match=message):
            load_embedding_file(p)
        with open(p, "rb") as fh, pytest.raises(EmbeddingFileError, match=message):
            score_embedding_file(fh, CurationSpec((("a", unit([1.0, 0.0])),), 1, 1, 1))
        if line == 1:
            with pytest.raises(EmbeddingFileError, match=message):
                embedding_dimension(p)
        else:
            assert embedding_dimension(p) == 2

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_a_dimension_below_one_is_named_at_the_header(self, tmp_path, capsys, m):
        emb = tmp_path / "emb.tsv"
        emb.write_text(f"#m={m}\n0\t1.0,0.0\n")
        message = rf"emb\.tsv:1: m must be >= 1$"
        with pytest.raises(EmbeddingFileError, match=message):
            load_embedding_file(emb)
        with open(emb, "rb") as fh, pytest.raises(EmbeddingFileError, match=message):
            score_embedding_file(fh, CurationSpec((("a", unit([1.0, 0.0])),), 1, 1, 1))
        with pytest.raises(EmbeddingFileError, match=message):
            embedding_dimension(emb)
        (tmp_path / "q.tsv").write_text("a\t1.0,0.0\n")
        (tmp_path / "cur.cfg").write_text("per_class_top = 1\nbackground_low = 1\nfinal_per_class = 1\n")
        assert main(["curate", "--embeddings", str(emb), "--queries", str(tmp_path / "q.tsv"),
                     "--spec", str(tmp_path / "cur.cfg"), "--out", str(tmp_path / "curated")]) == 2
        assert capsys.readouterr().err == f"driftbench: error: {emb}:1: m must be >= 1\n"

    def test_query_file(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("alpha\t1.0,0.0\nbeta\t0.0,5.0\n")
        queries = load_query_file(p)
        assert [name for name, _ in queries] == ["alpha", "beta"]
        assert np.allclose(queries[1][1], [0.0, 1.0])

    def test_overflowing_squared_norm_rejected_by_line(self, tmp_path):
        # 1e200 is finite but its square is not: numpy's norm would be inf
        # and the "unit" vector all zeros.  A component of 1e150 still loads.
        p = tmp_path / "emb.tsv"
        p.write_text("#m=2\n0\t1.0,2.0\n1\t1e200,1e200\n")
        with pytest.raises(EmbeddingFileError, match=r"emb\.tsv:3: squared norm overflows"):
            load_embedding_file(p)
        p.write_text("#m=2\n0\t1e150,0.0\n")
        assert load_embedding_file(p)[1].tolist() == [[1.0, 0.0]]
        q = tmp_path / "q.tsv"
        q.write_text("alpha\t1.0,0.0\nbeta\t-1e200,1e200\n")
        with pytest.raises(EmbeddingFileError, match=r"q\.tsv:2: squared norm overflows"):
            load_query_file(q)

    def test_rejection_list(self, tmp_path):
        p = tmp_path / "reject.txt"
        p.write_text("3\n17\n\n5\n")
        assert load_rejection_list(p) == {3, 17, 5}
        # An id beyond int64 could never match an embedding id.
        p.write_text(f"3\n{2**63 - 1}\n{-(2**63)}\n99999999999999999999999\n")
        with pytest.raises(
            EmbeddingFileError, match=r"reject\.txt:4: .*99999999999999999999999 outside the int64 range"
        ):
            load_rejection_list(p)
        p.write_text("3\nseven\n")
        with pytest.raises(EmbeddingFileError, match=r"reject\.txt:2: bad id 'seven'"):
            load_rejection_list(p)

    def test_class_table(self, tmp_path):
        p = tmp_path / "classes.txt"
        write_class_table(p, ["cat", "dog", BACKGROUND_CLASS])
        assert p.read_text() == "0\tcat\n1\tdog\n2\tbackground\n"


def test_curated_rows_in_ascending_id_order():
    embeddings = random_embeddings(60, 4, seed=10)[::-1]
    ids = np.array([e.id for e in embeddings])
    queries = (("x", unit([1, 0, 0, 0])), ("y", unit([0, 1, 0, 0])))
    spec = CurationSpec(
        queries=queries, per_class_top=5, background_low_per_class=10, final_per_class=3
    )
    rankings = rank_all(embeddings, spec)
    labeled = select_labeled(rankings, spec)
    background = assemble_background(rankings, spec, labeled)
    dataset = finalize_bucket(labeled, background, spec, seed=0)
    rows, labels = curated_rows(dataset, ids)
    by_id = sorted(
        (rid, label)
        for label, name in enumerate(dataset.class_names)
        for rid in dataset.selections[name]
    )
    assert list(zip(ids[rows].tolist(), labels.tolist())) == by_id
    assert len(rows) == 9 and set(labels.tolist()) == {0, 1, 2}


def test_curation_spec_validation():
    q = (("a", unit([1, 0])),)
    with pytest.raises(ValueError):
        CurationSpec(queries=(), per_class_top=1, background_low_per_class=1, final_per_class=1)
    with pytest.raises(ValueError):
        CurationSpec(queries=q, per_class_top=2, background_low_per_class=1, final_per_class=3)
    with pytest.raises(ValueError):
        CurationSpec(queries=q + q, per_class_top=1, background_low_per_class=1, final_per_class=1)


# The tuple/dict/set curation core that rank_rows, select_labeled and
# assemble_background replaced; they must give the same rankings, sets and errors.


def reference_rank(ids, matrix, query):
    """(ids tuple, id -> score dict) in the order of ``rank_rows``."""
    if query.shape != matrix.shape[1:]:
        raise ValueError(f"query dimension {query.shape} != embedding dimension {matrix.shape[1:]}")
    raw = matrix @ query
    order = np.lexsort((np.asarray(ids), -raw))
    return tuple(map(ids.__getitem__, order.tolist())), dict(zip(ids, raw.tolist()))


def reference_select(rankings, spec):
    universes = {frozenset(rankings[name]) for name in spec.class_names}
    if len(universes) != 1:
        raise ValueError("rankings must cover the same embedding universe")
    universe_size = len(next(iter(universes)))
    banned = set()
    selected = {name: [] for name in spec.class_names}
    cursor = {name: 0 for name in spec.class_names}
    for _ in range(universe_size + 1):
        for name in spec.class_names:
            ids = rankings[name]
            sel = selected[name]
            pos = cursor[name]
            while len(sel) < spec.per_class_top and pos < len(ids):
                candidate = ids[pos]
                pos += 1
                if candidate not in banned:
                    sel.append(candidate)
            cursor[name] = pos
            if len(sel) < spec.per_class_top:
                raise ShortageError(f"class {name!r} cannot reach {spec.per_class_top} ids")
        counts = Counter(i for sel in selected.values() for i in sel)
        conflicted = {i for i, c in counts.items() if c >= 2}
        if not conflicted:
            return {name: set(sel) for name, sel in selected.items()}
        banned |= conflicted
        for name in spec.class_names:
            selected[name] = [i for i in selected[name] if i not in conflicted]
    raise RuntimeError("duplicate resolution did not reach a fixpoint")


def reference_background(rankings, spec, labeled):
    taken = set().union(*labeled.values()) if labeled else set()
    background = set()
    for name in spec.class_names:
        ids = rankings[name]
        if len(ids) < spec.background_low_per_class:
            raise ShortageError(
                f"class {name!r} has only {len(ids)} ids, "
                f"needs {spec.background_low_per_class} for background"
            )
        background.update(ids[-spec.background_low_per_class :])
    return background - taken


def outcome(call):
    try:
        return "ok", call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@st.composite
def curation_cases(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    # Small integer components (signed zeros included): exact score ties are common.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(-3, 4, (n, m)) * rng.choice([-1.0, 1.0], (n, m))
    queries = tuple(
        (f"c{k}", rng.integers(-3, 4, m) * 1.0) for k in range(draw(st.integers(1, 4)))
    )
    spec = CurationSpec(
        queries=queries,
        # Small heads let shared ids be refilled; large ones run short.
        per_class_top=draw(st.integers(1, max(1, n // (2 * len(queries)))) | st.integers(1, n + 1)),
        background_low_per_class=draw(st.integers(1, n + 1)),
        final_per_class=1,
    )
    # Sometimes rank the last class over other rows: a dropped row or a changed id.
    mismatch = draw(st.sampled_from([None, None, None, "drop", "change"]))
    class_rows = [(ids, matrix)] * len(queries)
    if mismatch == "drop" and n > 1:
        class_rows[-1] = (ids[:-1], matrix[:-1])
    elif mismatch == "change" and ids[-1] < 2**63 - 1 and ids[-1] + 1 not in ids:
        class_rows[-1] = (ids[:-1] + [ids[-1] + 1], matrix)
    return spec, class_rows


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(curation_cases())
def test_curation_core_matches_tuple_reference(case):
    spec, class_rows = case
    rankings, reference = {}, {}
    for (name, query), (ids, matrix) in zip(spec.queries, class_rows):
        ranking = rank_rows(np.array(ids, dtype=np.int64), matrix, query)
        ref_ids, ref_scores = reference_rank(ids, matrix, query)
        assert ranking.ids.tolist() == list(ref_ids)
        assert [float(v).hex() for v in ranking.scores] == [ref_scores[i].hex() for i in ref_ids]
        rankings[name], reference[name] = ranking, ref_ids
    labeled = outcome(lambda: select_labeled(rankings, spec))
    assert labeled == outcome(lambda: reference_select(reference, spec))
    taken = labeled[1] if labeled[0] == "ok" else {name: set() for name in spec.class_names}
    assert outcome(lambda: assemble_background(rankings, spec, taken)) == outcome(
        lambda: reference_background(reference, spec, taken)
    )
    # The CLI's position path ranks every class over the first class's rows.
    ids, matrix = class_rows[0]
    same = {name: reference_rank(ids, matrix, query)[0] for name, query in spec.queries}
    want = outcome(lambda: reference_select(same, spec))
    if want[0] == "ok":
        want = outcome(lambda: (want[1], reference_background(same, spec, want[1])))
    assert outcome(lambda: curate_ids(np.array(ids, dtype=np.int64), matrix, spec)) == want
