"""Memory guards: runs, their fits, their artifacts, stream generation, the feature-file writer and curation hold bounded copies.

Each test measures with ``tracemalloc``, which numpy reports its array data
to, after a warm-up call has done the first-call imports.  The protocol runs
use a stream of 6 buckets of 2,000 rows at d = 64, so every bucket and every
iid test split is larger than a score chunk; the whole-run guard uses a long
stream of small buckets, where the N x N matrix is the largest array.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import driftbench.cli as cli_module
import driftbench.corpus as corpus_module
from driftbench.cli import main
from driftbench.corpus import DriftConfig, generate_drift_stream, read_feature_file, write_feature_file
from driftbench.curate import CurationSpec, EmbeddingFileError, curate_ids, score_embedding_file
from driftbench.learner import Hyperparams, Strategy, fit, init_learner, parse_architecture
from driftbench.protocol import SCORE_BATCH_ROWS, RunConfig, run_iid_protocol, run_streaming_protocol
from driftbench.runner import run_experiment, validate_config
from driftbench.sampler import parse_policy

STREAM = DriftConfig(C=4, d=64, N=6, n_per_class=500, radius=1.0, drift_rate=0.2, noise=0.5, seed=3)
BATCH = 256
HIDDEN = 64

# The rows a step may hold gathered: one minibatch and one score chunk, each
# with its hidden activations, since the fit reads the buffer's rows
# (capacity = BATCH) in place.  The budget leaves room for one batch of rows
# more, and half as much again covers the per-row index lists and the small
# temporaries.  A copy of the iid test rows does not fit.
BUDGET = 3 * (2 * BATCH + SCORE_BATCH_ROWS) * (STREAM.d + HIDDEN) * 8 // 2


def traced_peak(fn, *args):
    fn(*args)  # warm-up: first-call imports would otherwise count
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_config(stream, train_fraction):
    return RunConfig(
        strategy=Strategy.FINETUNING,
        architecture=parse_architecture(f"mlp:{HIDDEN}", d=stream.d, C=stream.C),
        hyperparams=Hyperparams(learning_rate=0.1, batch_size=BATCH, epochs=1, decay_epoch=1),
        alpha_policy=parse_policy("fixed:1.0"),
        buffer_capacity=BATCH,
        train_fraction=train_fraction,
    )


@pytest.fixture(scope="module")
def stream():
    return generate_drift_stream(STREAM)


def test_iid_run_scores_test_rows_in_place(stream):
    # Peaks by test share; a copy of the test rows would grow with it.
    peaks = {
        share: traced_peak(run_iid_protocol, stream, run_config(stream, train_fraction), 0)
        for share, train_fraction in ((0.3, 0.7), (0.7, 0.3))
    }
    assert max(peaks.values()) <= BUDGET, (peaks, BUDGET)
    assert peaks[0.7] <= peaks[0.3], peaks


def test_iid_run_lists_one_train_split_at_a_time(stream):
    # The sampler takes a split's train rows as Python ints, about 36 bytes
    # each.  Listed for every bucket before step 0, they would grow the peak
    # by that much per train row of the stream; listed at each bucket's own
    # step, by at most one bucket's.
    peaks = {share: traced_peak(run_iid_protocol, stream, run_config(stream, share), 0) for share in (0.1, 0.9)}
    bucket = len(stream.y) // stream.n_buckets
    assert peaks[0.9] - peaks[0.1] <= (0.9 - 0.1) * bucket * 36, peaks


def test_streaming_run_scores_a_large_bucket_in_chunks(stream):
    # Two buckets, the second of 10,000 rows: scored in one call, its hidden
    # activations alone would exceed the budget.
    two = dataclasses.replace(stream, offsets=np.array([0, 2000, len(stream.y)]))
    assert np.diff(two.offsets).max() * HIDDEN * 8 > BUDGET
    peak = traced_peak(run_streaming_protocol, two, run_config(two, None), 0)
    assert peak <= BUDGET, (peak, BUDGET)


@pytest.mark.parametrize("protocol", ["iid", "streaming"])
def test_run_trains_on_the_buffer_rows_in_place(stream, protocol):
    # A full buffer of 16 batches: its rows gathered for a fit would pass
    # their feature bytes, beside the score chunk and the minibatch.
    capacity = 16 * BATCH
    iid = protocol == "iid"
    cfg = dataclasses.replace(run_config(stream, 0.7 if iid else None), buffer_capacity=capacity)
    peak = traced_peak(run_iid_protocol if iid else run_streaming_protocol, stream, cfg, 0)
    assert peak < capacity * STREAM.d * 8, (peak, capacity * STREAM.d * 8)


def test_fit_on_rows_holds_one_minibatch():
    x = np.random.default_rng(0).standard_normal((50_000, 64))
    y = np.arange(len(x)) % 4
    rows = np.random.default_rng(1).permutation(len(x))[:BATCH]
    state = init_learner(parse_architecture(f"mlp:{HIDDEN}", d=64, C=4), seed=0)
    hp = Hyperparams(learning_rate=0.1, batch_size=64, epochs=2, decay_epoch=1)
    peak = traced_peak(fit, state, x, y, hp, rows)
    assert peak < x.nbytes // 8, (peak, x.nbytes)


def test_generation_holds_the_stream_plus_one_bucket():
    peak = traced_peak(generate_drift_stream, STREAM)
    stream = generate_drift_stream(STREAM)
    total = sum(a.nbytes for a in (stream.x, stream.y, stream.ids, stream.timestamps, stream.offsets))
    assert peak <= total + total // STREAM.N, (peak, total)


def test_writer_reads_selected_rows_in_place(tmp_path):
    x = np.random.default_rng(0).standard_normal((4000, 64))
    rows = np.random.default_rng(1).permutation(4000)[:2000]
    ids, labels = rows + 10, rows % 3
    path = tmp_path / "f.tsv"
    peak = traced_peak(write_feature_file, path, ids, np.zeros_like(rows), labels, x, rows, 3)
    # Each record's id, timestamp and label is listed as a Python int, about
    # 36 bytes each; an x[rows] copy would take 512 bytes per record.
    assert peak < len(rows) * x.shape[1] * 8 // 4, peak
    got_ids, _, got_labels, got_x, _ = read_feature_file(path)
    assert np.array_equal(got_ids, ids) and np.array_equal(got_labels, labels)
    assert got_x.tobytes() == x[rows].tobytes()


LONG_BUCKETS = 400
LONG_GRID = f"""\
[stream]
source = synthetic
classes = 4
dim = 8
buckets = {LONG_BUCKETS}
per_class = 1
noise = 0.3
drift_rate = 0.157

[cell:long]
protocol = streaming
strategy = finetuning
alpha = dynamic:1.0
buffer_capacity = 64
n_seeds = 2
epochs = 1
decay_epoch = 1
"""


def test_run_holds_one_matrix_at_a_time(tmp_path):
    # The run holds one N x N matrix; its presence check adds one N x N
    # boolean, and the metrics a copy of one triangle plus one boolean mask.
    # Twice the matrix leaves room for the 100 KB stream, but not for the
    # previous seed's matrix kept alive, for a matrix text joined from its
    # lines (0.96 MB, held twice while it is joined) or for a list of every cell.
    matrix = LONG_BUCKETS * LONG_BUCKETS * 8
    peak = traced_peak(run_experiment, validate_config(LONG_GRID, tmp_path / "out"))
    assert peak <= 2 * matrix, (peak, matrix)


def test_writer_holds_no_block_copy_in_two_processes(tmp_path, monkeypatch):
    # Measured in this process, which writes block 0 and appends the worker's file.
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: 2)
    test_writer_reads_selected_rows_in_place(tmp_path)


def test_curation_holds_one_position_vector_per_class():
    n, m, classes = 50_000, 8, 4
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    ids = rng.permutation(10 * n)[:n]
    queries = tuple((f"c{k}", x[k].copy()) for k in range(classes))
    spec = CurationSpec(queries=queries, per_class_top=200, background_low_per_class=200, final_per_class=100)
    # Beyond the matrix: the sorted universe, its by-id order and one
    # position vector per class, plus, while a class ranks, its scores and
    # the sort's work space.  rank_rows rankings (an id and a score vector
    # per class) held while select_labeled maps them to positions take about
    # 16 words per id.
    peak = traced_peak(curate_ids, ids, x, spec)
    assert peak <= (classes + 4) * n * 8, (peak, n * 8)


def test_curation_holds_positions_as_int32():
    # With 16 classes the position vectors dominate: int32 positions take
    # 8 words per id, intp ones 16, beyond the sorted universe, its by-id
    # order and one class's scores and sort while it ranks (about 5 words).
    n, m, classes = 50_000, 8, 16
    rng = np.random.default_rng(1)
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    ids = rng.permutation(10 * n)[:n]
    queries = tuple((f"c{k}", x[k].copy()) for k in range(classes))
    spec = CurationSpec(queries=queries, per_class_top=100, background_low_per_class=100, final_per_class=50)
    peak = traced_peak(curate_ids, ids, x, spec)
    assert peak <= (classes // 2 + 6) * n * 8, (peak, n * 8)


def vector_text(n, m):
    """``n`` rows of ``m`` components written "d.d", comma-separated and each ending in a newline: one row of bytes per line."""
    text = np.full((n, m, 4), ord("."), dtype=np.uint8)
    text[:, :, [0, 2]] = np.random.default_rng(2).integers(1, 10, (n, m, 2), dtype=np.uint8) + ord("0")
    text[:, :, 3] = ord(",")
    text[:, -1, 3] = ord("\n")
    return text.reshape(n, 4 * m)


def test_curate_command_holds_no_embedding_matrix(tmp_path, monkeypatch):
    # 20,000 x 256 components written "d.d": a 41 MB matrix from a 20 MB
    # file.  Everything runs in this process, so that the trace sees every parse.
    n, m = 20_000, 256
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: 1)
    text = vector_text(n, m)

    def write_inputs(root, rows):
        root.mkdir()
        with open(root / "emb.tsv", "wb") as fh:
            fh.write(f"#m={m}\n".encode())
            fh.writelines(f"{i}\t".encode() + row.tobytes() for i, row in enumerate(text[:rows]))
        (root / "q.tsv").write_text("".join(f"c{k}\t" + ",".join(["0"] * k + ["1"] + ["0"] * (m - k - 1)) + "\n"
                                            for k in range(4)))
        (root / "cur.cfg").write_text("per_class_top = 20\nbackground_low = 20\nfinal_per_class = 10\n")
        return ["curate", "--embeddings", str(root / "emb.tsv"), "--queries", str(root / "q.tsv"),
                "--spec", str(root / "cur.cfg"), "--out", str(root / "curated")]

    assert main(write_inputs(tmp_path / "warm-up", 400)) == 0  # first-call imports
    args = write_inputs(tmp_path / "big", n)
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A chunk's matrix is about twice its text here, some 2 MiB; holding the
    # file's matrix, as load_embedding_file does, would take four times the bound.
    assert peak <= n * m * 8 // 4, (peak, n * m * 8)


def test_curate_command_writes_without_the_scores(tmp_path, monkeypatch):
    # 20,000 ids scored for 16 classes: 2.6 MB of scores that nothing after
    # the ranking reads.  At the write, the ids and the byte spans of the
    # records to parse again hold 0.6 MB.
    n, m = 20_000, 16
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: 1)
    with open(tmp_path / "emb.tsv", "wb") as fh:
        fh.write(f"#m={m}\n".encode())
        fh.writelines(f"{i}\t".encode() + row.tobytes() for i, row in enumerate(vector_text(n, m)))
    (tmp_path / "q.tsv").write_text("".join(f"c{k}\t" + ",".join("1" if j == k else "0" for j in range(m)) + "\n"
                                            for k in range(m)))
    (tmp_path / "cur.cfg").write_text("per_class_top = 20\nbackground_low = 20\nfinal_per_class = 10\n")
    held = []

    def write(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return write_feature_file(*args)

    monkeypatch.setattr(cli_module, "write_feature_file", write)
    tracemalloc.start()
    try:
        assert main(["curate", "--embeddings", str(tmp_path / "emb.tsv"), "--queries", str(tmp_path / "q.tsv"),
                     "--spec", str(tmp_path / "cur.cfg"), "--out", str(tmp_path / "curated")]) == 0
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] <= m * n * 8 // 2, (held, m * n * 8)


@pytest.mark.parametrize("fault", ["1_0", "duplicate id"])
def test_a_rejected_embedding_file_is_named_without_its_matrix(tmp_path, monkeypatch, fault):
    # 8,000 x 256 components: a 16 MB matrix from an 8 MB file whose last
    # record holds a value np.loadtxt rejects, or repeats the first id.  A
    # chunk's text, lines and matrix take about 6 MB; holding the file's
    # matrix would take twice the bound.
    n, m = 8_000, 256
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: 1)
    ids = [f"{i}\t".encode() for i in range(n - 1)] + [b"0\t" if fault == "duplicate id" else f"{n - 1}\t".encode()]
    rows = [ident + row.tobytes() for ident, row in zip(ids, vector_text(n, m))]
    if fault == "1_0":
        rows[-1] = rows[-1].replace(b",", b",1_0,", 1).replace(b",", b"", 1)
    path = tmp_path / "emb.tsv"
    path.write_bytes(f"#m={m}\n".encode() + b"".join(rows))
    spec = CurationSpec((("a", np.eye(m)[0]),), 1, 1, 1)

    def score():
        with open(path, "rb") as fh, pytest.raises(EmbeddingFileError, match=f"emb\\.tsv:{n + 1}: .*{fault}"):
            score_embedding_file(fh, spec)

    assert traced_peak(score) <= n * m * 8 // 2
