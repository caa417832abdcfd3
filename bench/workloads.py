"""The benchmark's workloads: seeded inputs, the CLI commands that consume them, output checks.

Every workload runs serially, with no ``--jobs``.  A workload seed sets the
synthetic ``stream_seed``, each cell's ``base_seed`` and the embedding and
query vectors; ``driftbench`` receives only the generated files.

- ``paper-grid``: the paper's scale (C=11, d=128, N=10, 300 per class,
  20 epochs, 2 seeds), one iid/linear/finetuning cell and one
  streaming/mlp:64/from_scratch cell.  Bound by ``learner``.
- ``long-stream``: N=400 buckets of 4 samples, one streaming finetuning cell
  with a 64-sample FIFO buffer and 1 epoch, 2 seeds.  The learner does almost
  nothing, so per-bucket protocol, scoring and artifact costs, which grow
  with N squared, dominate.
- ``curate-file``: ``driftbench curate`` over a 60k x 64 embedding file with
  ten queries whose heads share ids, then ``driftbench run`` on the curated
  feature file.  The only workload that reads and writes both file formats.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Outputs that reruns must reproduce byte for byte; everything else is ignored.
DIGESTED = ("matrix_seed*.txt", "events_seed*.log", "report.txt", "summary.csv",
            "stream_manifest.tsv", "features.tsv")

REPORT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Cell:
    name: str
    protocol: str
    keys: dict[str, str]
    n_seeds: int
    base_seed: int


@dataclass(frozen=True)
class RunCommand:
    """One ``driftbench run``: its config file, output directory and cells."""

    config: Path
    out: str
    buckets: int
    cells: tuple[Cell, ...]

    def argv(self) -> list[str]:
        return ["run", "--config", str(self.config), "--out", self.out]


@dataclass(frozen=True)
class CurateCommand:
    """One ``driftbench curate``: its input files, output directory and expected shape."""

    embeddings: Path
    queries: Path
    spec: Path
    out: str
    classes: int
    final_per_class: int

    def argv(self) -> list[str]:
        return ["curate", "--embeddings", str(self.embeddings), "--queries", str(self.queries),
                "--spec", str(self.spec), "--out", self.out]


@dataclass(frozen=True)
class Workload:
    """The commands over generated inputs, in order; output paths are relative to a repetition's directory."""

    commands: list

    @property
    def configs(self) -> list[str]:
        return [str(c.config) for c in self.commands if isinstance(c, RunCommand)]

    @property
    def specs(self) -> list[str]:
        return [str(c.spec) for c in self.commands if isinstance(c, CurateCommand)]

    @property
    def operations(self) -> int:
        """(cell, seed) runs of every ``run`` plus one per other command."""
        return sum(
            sum(cell.n_seeds for cell in c.cells) if isinstance(c, RunCommand) else 1
            for c in self.commands
        )


def _config_text(stream: dict[str, object], cells: tuple[Cell, ...]) -> str:
    lines = ["[stream]"] + [f"{k} = {v}" for k, v in stream.items()]
    for cell in cells:
        lines.append(f"[cell:{cell.name}]")
        lines.append(f"protocol = {cell.protocol}")
        lines.append(f"n_seeds = {cell.n_seeds}")
        lines.append(f"base_seed = {cell.base_seed}")
        lines.extend(f"{k} = {v}" for k, v in cell.keys.items())
    return "\n".join(lines) + "\n"


def _write_run(path: Path, out: str, stream: dict[str, object], cells: tuple[Cell, ...]) -> RunCommand:
    path.write_text(_config_text(stream, cells), encoding="utf-8")
    return RunCommand(config=path, out=out, buckets=int(stream["buckets"]), cells=cells)


def paper_grid(seed: int, inputs: Path) -> Workload:
    stream = {"source": "synthetic", "classes": 11, "dim": 128, "buckets": 10, "per_class": 300,
              "noise": 0.3, "drift_rate": 0.157, "stream_seed": seed}
    common = {"buffer_capacity": 3300, "batch": 256, "epochs": 20, "decay_epoch": 15}
    cells = (
        Cell("iid-linear-finetuning", "iid", {"strategy": "finetuning", "architecture": "linear",
             "train_fraction": 0.7, "lr": 0.5, **common}, n_seeds=2, base_seed=10 * seed),
        Cell("streaming-mlp64-from_scratch", "streaming", {"strategy": "from_scratch",
             "architecture": "mlp:64", "lr": 0.1, **common}, n_seeds=2, base_seed=10 * seed),
    )
    return Workload([_write_run(inputs / "grid.cfg", "run", stream, cells)])


def long_stream(seed: int, inputs: Path) -> Workload:
    stream = {"source": "synthetic", "classes": 4, "dim": 8, "buckets": 400, "per_class": 1,
              "noise": 0.3, "drift_rate": 0.157, "stream_seed": seed}
    cells = (
        Cell("streaming-finetuning-fifo", "streaming", {"strategy": "finetuning",
             "alpha": "dynamic:1.0", "buffer_capacity": 64, "epochs": 1, "decay_epoch": 1,
             "lr": 0.5}, n_seeds=2, base_seed=10 * seed),
    )
    return Workload([_write_run(inputs / "long.cfg", "run", stream, cells)])


CURATE_CLASSES = 10
CURATE_FINAL = 1500
PAIR_COSINE = 0.25


def curate_file(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    m, n = 64, 60_000
    embeddings = inputs / "embeddings.tsv"
    with open(embeddings, "w", encoding="utf-8") as fh:
        fh.write(f"#m={m}\n")
        rows = np.column_stack([np.arange(n), rng.standard_normal((n, m))])
        np.savetxt(fh, rows, fmt="%d\t" + ",".join(["%.6f"] * m))
    # Queries come in pairs at a fixed cosine on a random orthonormal basis, so
    # each pair's heads share ids and select_labeled has cross-class
    # duplicates to resolve, the same amount of them for every seed.
    basis = np.linalg.qr(rng.standard_normal((m, CURATE_CLASSES)))[0].T
    queries = inputs / "queries.tsv"
    with open(queries, "w", encoding="utf-8") as fh:
        for c in range(CURATE_CLASSES):
            first = basis[c - c % 2]
            q = first if c % 2 == 0 else PAIR_COSINE * first + math.sqrt(1 - PAIR_COSINE**2) * basis[c]
            fh.write(f"class{c}\t" + ",".join(f"{v:.6f}" for v in q) + "\n")
    spec = inputs / "curation.cfg"
    spec.write_text(f"per_class_top = 2000\nbackground_low = 600\n"
                    f"final_per_class = {CURATE_FINAL}\nseed = {seed}\n", encoding="utf-8")
    curate = CurateCommand(embeddings, queries, spec, "curated", CURATE_CLASSES, CURATE_FINAL)
    stream = {"source": "file", "path": "curated/features.tsv", "normalize": "true", "buckets": 10}
    cells = (
        Cell("streaming-linear-finetuning", "streaming", {"strategy": "finetuning",
             "buffer_capacity": 1650, "epochs": 2, "decay_epoch": 2, "batch": 256, "lr": 0.5},
             n_seeds=1, base_seed=10 * seed),
    )
    return Workload([curate, _write_run(inputs / "curated.cfg", "run", stream, cells)])


WORKLOADS = {"paper-grid": paper_grid, "long-stream": long_stream, "curate-file": curate_file}


def _check_run(rep: Path, command: RunCommand) -> tuple[int, list[str]]:
    """Failed (cell, seed) count and problems of one ``run``, via the package's own parsers."""
    from driftbench.metrics import aggregate, compute_metrics
    from driftbench.protocol import ProtocolKind, audit_streaming_order, matrix_from_text, parse_event_log

    failed, problems = 0, []
    for cell in command.cells:
        cell_dir = rep / command.out / cell.name
        protocol = ProtocolKind(cell.protocol)
        reports, cell_problems = [], []
        for seed in range(cell.base_seed, cell.base_seed + cell.n_seeds):
            try:
                matrix = matrix_from_text((cell_dir / f"matrix_seed{seed}.txt").read_text())
                if matrix.protocol is not protocol or matrix.n != command.buckets:
                    raise ValueError(f"matrix is {matrix.protocol.value} N={matrix.n}")
                logged, events = parse_event_log((cell_dir / f"events_seed{seed}.log").read_text())
                if logged is not protocol:
                    raise ValueError(f"event log protocol is {logged.value}")
                if protocol is ProtocolKind.STREAMING:
                    audit_streaming_order(events)
                reports.append(compute_metrics(matrix))
            except (OSError, ValueError, RuntimeError) as exc:
                cell_problems.append(f"{cell.name} seed {seed}: {exc}")
        if not cell_problems:
            expected = aggregate(reports)
            try:
                stored = dict(line.split("=", 1) for line in
                              (cell_dir / "report.txt").read_text().splitlines())
                for name, mean in expected.means.items():
                    if abs(float(stored[f"{name}_mean"]) - mean) > REPORT_TOLERANCE:
                        raise ValueError(f"{name}_mean {stored[f'{name}_mean']} != {mean:.9f}")
            except (OSError, KeyError, ValueError) as exc:
                cell_problems.append(f"{cell.name} report.txt: {exc}")
        if cell_problems:
            failed += cell.n_seeds
            problems.extend(cell_problems)
    return failed, problems


def _check_curate(rep: Path, command: CurateCommand) -> list[str]:
    """Problems with the curated output: C+1 balanced classes and no id in two of them."""
    from driftbench.corpus import load_feature_file

    out = rep / command.out
    try:
        samples = load_feature_file(out / "features.tsv")
        names = (out / "classes.txt").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        return [f"curate: {exc}"]
    problems = []
    if len(names) != command.classes + 1:
        problems.append(f"curate: {len(names)} classes, expected {command.classes + 1}")
    per_class = Counter(s.label for s in samples)
    if sorted(per_class.items()) != [(c, command.final_per_class) for c in range(command.classes + 1)]:
        problems.append(f"curate: unbalanced class counts {sorted(per_class.items())}")
    if len({s.id for s in samples}) != len(samples):
        problems.append("curate: an id appears in more than one class")
    return problems


def check(rep: Path, workload: Workload, codes: list[int]) -> tuple[int, list[str]]:
    """Failed operations and the problems found in one repetition's outputs."""
    failed, problems = 0, []
    for command, code in zip(workload.commands, codes):
        if isinstance(command, RunCommand):
            cell_failed, cell_problems = _check_run(rep, command)
            if code != 0 and not cell_problems:
                cell_failed = sum(cell.n_seeds for cell in command.cells)
                cell_problems = [f"run exited with {code}"]
            failed += cell_failed
            problems.extend(cell_problems)
        else:
            curate_problems = _check_curate(rep, command)
            if code != 0:
                curate_problems.append(f"curate exited with {code}")
            failed += 1 if curate_problems else 0
            problems.extend(curate_problems)
    return failed, problems


def _sha256(root: Path, paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def digest(rep: Path) -> str:
    """SHA-256 over the deterministic outputs of a repetition, by relative path."""
    return _sha256(rep, {p for pattern in DIGESTED for p in rep.rglob(pattern)})


def artifact_bytes(rep: Path, workload: Workload) -> int:
    """Bytes written by the ``run`` commands: matrices, event logs, reports and summaries."""
    return sum(
        p.stat().st_size
        for c in workload.commands if isinstance(c, RunCommand)
        for p in (rep / c.out).rglob("*") if p.is_file()
    )


def source_digest(package: Path) -> str:
    """SHA-256 over the package sources, which identifies the code where git does not."""
    return _sha256(package, package.rglob("*.py"))
