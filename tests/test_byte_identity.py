"""Byte-identity guard: pinned runs' artifacts must keep their recorded SHA-256 digests.

The grid covers both protocols, both architectures, every strategy and both
alpha policies (fixed below 1, so the reservoir draws and shuffles, and the
FIFO ``dynamic:1.0``), on one synthetic stream and one file stream.  A
refactor of the run path that changes any matrix, event log, report or
manifest by a single byte fails here.  A small ``driftbench curate`` run,
with shared query heads and a rejection list, pins the curated feature file
and class table the same way.  Re-record the digests only for a
change that is meant to alter outputs, and say so where the change is
described.

Each run-grid test runs in one process and in two (a forked worker), the
count forced through ``runner._process_count``: both give the recorded bytes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import driftbench.protocol as protocol_module
import driftbench.runner as runner_module
from driftbench.cli import main
from driftbench.runner import run_experiment, validate_config

DIGESTS = Path(__file__).with_name("byte_identity_digests.json")

SYNTHETIC_STREAM = """\
[stream]
source = synthetic
classes = 3
dim = 4
buckets = 4
per_class = 8
noise = 0.4
drift_rate = 0.3
stream_seed = 5
"""

FILE_STREAM = """\
[stream]
source = file
path = {path}
buckets = 3
"""

CELLS = (
    """\
[cell:iid-nap-linear]
protocol = iid
strategy = napping
alpha = fixed:1.0
buffer_capacity = 12
train_fraction = 0.6
""",
    """\
[cell:iid-scratch-mlp]
protocol = iid
strategy = from_scratch
architecture = mlp:8
alpha = dynamic:1.0
buffer_capacity = 10
train_fraction = 0.7
""",
    """\
[cell:iid-ft-linear]
protocol = iid
strategy = finetuning
alpha = fixed:0.5
buffer_capacity = 9
train_fraction = 0.5
""",
    """\
[cell:str-ft-mlp]
protocol = streaming
strategy = finetuning
architecture = mlp:8
alpha = fixed:1.0
buffer_capacity = 14
""",
    """\
[cell:str-scratch-linear]
protocol = streaming
strategy = from_scratch
alpha = dynamic:1.0
buffer_capacity = 16
""",
    """\
[cell:str-nap-mlp]
protocol = streaming
strategy = napping
architecture = mlp:8
alpha = fixed:2.0
buffer_capacity = 6
""",
)

# Shared training settings, appended to every cell.
CELL_HP = "n_seeds = 2\nbase_seed = 1\nlr = 0.3\nbatch = 5\nepochs = 3\ndecay_epoch = 2\n"


def write_file_stream(path: Path) -> None:
    """A 50-record feature file with tied, unsorted timestamps and a dropped remainder."""
    rng = np.random.default_rng(17)
    ids = rng.permutation(np.arange(100, 150))
    timestamps = rng.integers(0, 6, size=50)
    labels = rng.integers(0, 3, size=50)
    features = rng.standard_normal((50, 4)) + labels[:, None]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#d=4 C=3\n")
        for sid, ts, label, row in zip(ids, timestamps, labels, features):
            fh.write(f"{sid}\t{ts}\t{label}\t" + ",".join(repr(float(v)) for v in row) + "\n")


# (source, processes); a one-process id is the source alone.
SOURCES_AND_PROCESSES = [pytest.param(source, processes, id=source if processes == 1 else f"{source}-{processes}")
                         for processes in (1, 2) for source in ("synthetic", "file")]


def use_processes(monkeypatch, processes):
    monkeypatch.setattr(runner_module, "_process_count", lambda units: min(units, processes))


def run_digests(stream_text: str, out_dir: Path) -> dict[str, str]:
    cells = "".join(f"\n{cell}{CELL_HP}" for cell in CELLS)
    result = run_experiment(validate_config(stream_text + cells, out_dir))
    assert result.ok, result.failures
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("source, processes", SOURCES_AND_PROCESSES)
def test_pinned_grid_artifacts_match_recorded_digests(source, processes, tmp_path, monkeypatch):
    monkeypatch.delenv("DRIFTBENCH_SEED", raising=False)
    use_processes(monkeypatch, processes)
    if source == "synthetic":
        stream_text = SYNTHETIC_STREAM
    else:
        write_file_stream(tmp_path / "features.tsv")
        stream_text = FILE_STREAM.format(path=tmp_path / "features.tsv")
    got = run_digests(stream_text, tmp_path / "out")
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[source]
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"artifacts differ from the recorded digests: {changed}"


# A long stream, 100 buckets of 4 rows: its matrices and event logs are
# written a row or a step at a time, and its metrics sum regions of up to
# 4,950 cells, a row view at a time.
LONG_GRID = """\
[stream]
source = synthetic
classes = 2
dim = 4
buckets = 100
per_class = 2
noise = 0.5
drift_rate = 0.05
stream_seed = 11

[cell:str-ft-linear]
protocol = streaming
strategy = finetuning
alpha = dynamic:1.0
buffer_capacity = 16
n_seeds = 2
base_seed = 3
epochs = 1
decay_epoch = 1

[cell:iid-ft-linear]
protocol = iid
strategy = finetuning
alpha = fixed:1.0
buffer_capacity = 16
train_fraction = 0.5
n_seeds = 1
epochs = 1
decay_epoch = 1
"""


# Three processes on a two-CPU machine is more processes than CPUs.
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_long_stream_artifacts_match_recorded_digests(processes, tmp_path, monkeypatch):
    monkeypatch.delenv("DRIFTBENCH_SEED", raising=False)
    use_processes(monkeypatch, processes)
    out = tmp_path / "out"
    result = run_experiment(validate_config(LONG_GRID, out))
    assert result.ok, result.failures
    got = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert got == json.loads(DIGESTS.read_text(encoding="utf-8"))["long"]


@pytest.mark.parametrize("source, processes", SOURCES_AND_PROCESSES)
def test_chunked_scoring_matches_recorded_digests(source, processes, tmp_path, monkeypatch):
    # Below every bucket (16 rows at least) and iid test split (4 rows at
    # least), so each target is scored over several predict_batch calls.
    monkeypatch.setattr(protocol_module, "SCORE_BATCH_ROWS", 3)
    test_pinned_grid_artifacts_match_recorded_digests(source, processes, tmp_path, monkeypatch)


def write_curation_inputs(root: Path) -> list[str]:
    """Embedding, query, rejection and spec files for a curation with shuffled ids; the CLI args."""
    rng = np.random.default_rng(23)
    ids = rng.permutation(np.arange(500, 740))
    vectors = rng.standard_normal((240, 6))
    with open(root / "emb.tsv", "w", encoding="utf-8") as fh:
        fh.write("#m=6\n")
        for rid, row in zip(ids, vectors):
            fh.write(f"{rid}\t" + ",".join(repr(float(v)) for v in row) + "\n")
    # Neighbouring queries share head ids, so duplicate resolution refills.
    (root / "q.tsv").write_text(
        "red\t1.0,0.2,0.0,0.0,0.0,0.0\ngreen\t0.6,0.8,0.1,0.0,0.0,0.0\nblue\t0.0,0.0,1.0,0.0,0.5,0.0\n"
    )
    (root / "reject.txt").write_text("".join(f"{rid}\n" for rid in ids[::7]))
    (root / "cur.cfg").write_text(
        "per_class_top = 12\nbackground_low = 30\nfinal_per_class = 8\nseed = 4\n"
        f"reject_file = {root / 'reject.txt'}\n"
    )
    return ["curate", "--embeddings", str(root / "emb.tsv"), "--queries", str(root / "q.tsv"),
            "--spec", str(root / "cur.cfg"), "--out", str(root / "curated")]


def test_curated_files_match_recorded_digests(tmp_path):
    assert main(write_curation_inputs(tmp_path)) == 0
    got = {
        name: hashlib.sha256((tmp_path / "curated" / name).read_bytes()).hexdigest()
        for name in ("classes.txt", "features.tsv")
    }
    assert got == json.loads(DIGESTS.read_text(encoding="utf-8"))["curate"]
