"""Memory guards: runs, their artifacts, stream generation and the feature-file writer hold bounded copies.

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

from driftbench.corpus import DriftConfig, generate_drift_stream, read_feature_file, write_feature_file
from driftbench.learner import Hyperparams, Strategy, parse_architecture
from driftbench.protocol import SCORE_BATCH_ROWS, RunConfig, run_iid_protocol, run_streaming_protocol
from driftbench.runner import run_experiment, validate_config
from driftbench.sampler import parse_policy

STREAM = DriftConfig(C=4, d=64, N=6, n_per_class=500, radius=1.0, drift_rate=0.2, noise=0.5, seed=3)
BATCH = 256
HIDDEN = 64

# The rows a step may hold gathered: the buffer's training rows (capacity =
# BATCH), one minibatch and one score chunk, each with its hidden
# activations; half as much again covers the per-row index lists and the
# small temporaries.  A copy of the iid test rows does not fit.
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


def test_streaming_run_scores_a_large_bucket_in_chunks(stream):
    # Two buckets, the second of 10,000 rows: scored in one call, its hidden
    # activations alone would exceed the budget.
    two = dataclasses.replace(stream, offsets=np.array([0, 2000, len(stream.y)]))
    assert np.diff(two.offsets).max() * HIDDEN * 8 > BUDGET
    peak = traced_peak(run_streaming_protocol, two, run_config(two, None), 0)
    assert peak <= BUDGET, (peak, BUDGET)


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
