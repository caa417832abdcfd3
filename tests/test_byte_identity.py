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
The curated feature file is written in one, two and three processes the same
way, through ``corpus._process_count``, also with the embedding file cut into
chunks of about 512 bytes and up to three byte ranges.  ``driftbench curate``
scores the embedding file without its matrix and parses the selected records
again for the write: a messy file gives the bytes of the library path
(``load_embedding_file``, ``curate_ids``, ``write_feature_file``), a bad
record is still named by its line, and a file changed between the two reads
leaves the previous output.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import driftbench.corpus as corpus_module
import driftbench.curate as curate_module
import driftbench.protocol as protocol_module
import driftbench.runner as runner_module
from driftbench.cli import main
from driftbench.runner import read_curation_spec, run_experiment, validate_config

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


# The curation writes about 30 records: with one value per unit the writer
# cuts them into as many blocks as it is given processes.
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_curated_bytes_match_at_every_process_count(processes, tmp_path, monkeypatch):
    forked = []
    real = corpus_module._fork_shares
    monkeypatch.setattr(corpus_module, "FORK_MIN_VALUES", 1)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, processes))
    monkeypatch.setattr(corpus_module, "_fork_shares", lambda count, share: forked.append(count) or real(count, share))
    test_curated_files_match_recorded_digests(tmp_path)
    assert forked == [processes]


# The embedding file (about 27 KB) is cut into chunks of about 512 bytes, a
# few records each, and its byte ranges among up to three processes.
@pytest.mark.parametrize("processes", [1, 2, 3])
def test_curated_bytes_match_with_the_embedding_file_split(processes, tmp_path, monkeypatch):
    forked = []
    real = corpus_module._fork_shares
    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 512)
    monkeypatch.setattr(corpus_module, "FORK_MIN_VALUES", 1)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, processes))
    monkeypatch.setattr(corpus_module, "_fork_shares", lambda count, share: forked.append(count) or real(count, share))
    test_curated_files_match_recorded_digests(tmp_path)
    # The reader forks a worker per range, the writer one per block but the first.
    assert forked == ([processes + 1] if processes > 1 else []) + [processes]


def write_messy_embeddings(root: Path, bad_line: int | None = None) -> Path:
    """An embedding file with CRLF and lone-CR line ends, blank and whitespace-only lines,
    padded records, ids out of order and no final newline; ``bad_line`` loses a component."""
    rng = np.random.default_rng(31)
    ids = rng.permutation(np.arange(2000, 2240))
    vectors = rng.standard_normal((240, 6))
    lines = [f"{rid}\t" + ",".join(repr(float(v)) for v in row) for rid, row in zip(ids, vectors)]
    ends = ["\n", "\r\n", "\r", "\n  \t \n", "\n\n", " \r\n"]
    text = "#m=6\r\n" + "".join(
        (" " if k % 9 == 0 else "") + line + ends[k % len(ends)] for k, line in enumerate(lines[:-1])
    ) + lines[-1]
    if bad_line is not None:
        split = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert split[bad_line - 1].strip(), "the bad line must hold a record"
        record = split[bad_line - 1].strip()
        text = text.replace(record, record.rpartition(",")[0], 1)
    path = root / "emb.tsv"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("processes", [1, 2])
def test_messy_embedding_file_curates_as_the_library_path(processes, tmp_path, monkeypatch):
    args = write_curation_inputs(tmp_path)
    write_messy_embeddings(tmp_path)
    spec = read_curation_spec(tmp_path / "cur.cfg")
    curation = spec.spec(curate_module.load_query_file(tmp_path / "q.tsv"))
    ids, x = curate_module.load_embedding_file(tmp_path / "emb.tsv")
    labeled, background = curate_module.curate_ids(ids, x, curation)
    rejected = curate_module.load_rejection_list(tmp_path / "reject.txt")
    labeled = {name: chosen - rejected for name, chosen in labeled.items()}
    dataset = curate_module.finalize_bucket(labeled, background - rejected, curation, seed=spec.values["seed"])
    rows, labels = curate_module.curated_rows(dataset, ids)
    reference = tmp_path / "reference.tsv"
    corpus_module.write_feature_file(reference, ids[rows], np.zeros_like(rows), labels, x, rows, 4)

    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 512)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, processes))
    # The scoring reader parses each chunk once: no chunk is parsed again a line at a time.
    monkeypatch.setattr(corpus_module, "record_fault", lambda *args: pytest.fail("parsed again a line at a time"))
    assert main(args) == 0
    assert (tmp_path / "curated" / "features.tsv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("bad_line", [3, 201, 321])
@pytest.mark.parametrize("processes", [1, 2])
def test_a_bad_embedding_record_is_named_by_its_line(processes, bad_line, tmp_path, monkeypatch, capsys):
    args = write_curation_inputs(tmp_path)
    emb = write_messy_embeddings(tmp_path, bad_line)
    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 512)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, processes))
    assert main(args) == 2
    assert f"{emb}:{bad_line}: expected 6 components" in capsys.readouterr().err
    assert not (tmp_path / "curated").exists()


@pytest.mark.parametrize("processes", [1, 2])
def test_an_embedding_file_changed_before_the_write_keeps_the_old_output(processes, tmp_path, monkeypatch, capsys):
    args = write_curation_inputs(tmp_path)
    assert main(args) == 0
    features = tmp_path / "curated" / "features.tsv"
    before = features.read_bytes()
    emb = tmp_path / "emb.tsv"
    real = curate_module.curated_rows

    def rows_then_change_the_file(dataset, ids):
        # The last record written (the largest id, in the last writer block)
        # gets another id of the same width, in place.
        rows, labels = real(dataset, ids)
        last = int(ids[rows[-1]])
        text = emb.read_text()
        with open(emb, "r+b") as fh:
            fh.seek(text.index(f"\n{last}\t") + 1)
            fh.write(str(last + 100).encode())
        return rows, labels

    monkeypatch.setattr(corpus_module, "FORK_MIN_VALUES", 1)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, processes))
    monkeypatch.setattr(curate_module, "curated_rows", rows_then_change_the_file)
    capsys.readouterr()
    assert main(args) == 2
    assert f"{emb}: records changed since the file was read" in capsys.readouterr().err
    assert features.read_bytes() == before
    assert sorted(p.name for p in features.parent.iterdir()) == ["classes.txt", "features.tsv"]
