"""Run config and curation spec parsing, grid expansion, execution, and artifact emission."""

from __future__ import annotations

import contextlib
import difflib
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Mapping, Sequence

from .corpus import (
    DriftConfig,
    FieldValueError,
    TemporalStream,
    _exit_text,
    _fork_shares,
    _process_count,
    bucketize,
    generate_drift_stream,
    parse_float,
    parse_int64,
    read_feature_file,
    read_text,
    stream_manifest,
    text_lines,
)
from .curate import CurationSpec
from .learner import Hyperparams, Strategy, parse_architecture, parse_strategy
from .metrics import AggregateReport, MetricReport, aggregate, compute_metrics, csv_rows, report_text
from .protocol import (
    ProtocolKind,
    RunConfig,
    _matrix_lines,
    _step_log_chunks,
    run_iid_protocol,
    run_streaming_protocol,
)
from .sampler import AlphaPolicy, parse_policy


class ConfigError(ValueError):
    """Invalid experiment configuration; the message carries per-key line numbers."""


@dataclass(frozen=True)
class StreamSpec:
    """Where the stream comes from: a synthetic drift config or a feature file."""

    source: str
    drift: DriftConfig | None = None
    path: str | None = None
    normalize: bool = False
    n_buckets: int = 0


@dataclass(frozen=True)
class CellConfig:
    """One independently executable grid cell."""

    name: str
    protocol: ProtocolKind
    strategy: Strategy
    arch_text: str
    policy: AlphaPolicy
    buffer_capacity: int
    hyperparams: Hyperparams
    train_fraction: float | None
    n_seeds: int
    base_seed: int


@dataclass(frozen=True)
class ExperimentGrid:
    stream: StreamSpec
    cells: tuple[CellConfig, ...]
    out_dir: Path


@dataclass(frozen=True)
class ExperimentResult:
    """Per-cell aggregate reports plus isolated failures; ok is False iff any cell errored."""

    reports: dict[str, AggregateReport]
    failures: dict[str, str]

    @property
    def ok(self) -> bool:
        return not self.failures


_REQUIRED = object()

# key -> (converter, default, help text).  A default is config text, converted
# as a value read from the file would be; a dataclass's own defaults are read
# from its fields.  _REQUIRED keys have none, and an optional key whose default
# is None stays unset when absent.  A converter is a type (its error names the
# key and type) or a parser (its error is the message).
_Key = tuple[Callable[[str], Any], Any, str]


def _protocol(text: str) -> ProtocolKind:
    if text not in ("iid", "streaming"):
        raise ValueError("protocol must be 'iid' or 'streaming'")
    return ProtocolKind(text)


def _architecture(text: str) -> str:
    """``text`` once it parses; the stream's d and C are known only when the cell runs."""
    parse_architecture(text, d=1, C=1)
    return text


_STREAM_KEYS: dict[str, _Key] = {
    "source": (str, _REQUIRED, "synthetic | file"),
    "buckets": (int, _REQUIRED, "number of buckets N"),
}

# The keys each source takes besides the two above; the other source's keys are out of place.
_SOURCE_KEYS: dict[str, dict[str, _Key]] = {
    "synthetic": {
        "classes": (int, _REQUIRED, "synthetic: class count"),
        "dim": (int, _REQUIRED, "synthetic: feature dimension"),
        "per_class": (int, _REQUIRED, "synthetic: samples per class per bucket"),
        "radius": (float, "1.0", "synthetic: class-circle radius"),
        "drift_rate": (float, "0.0", "synthetic: radians of rotation per bucket"),
        "noise": (float, _REQUIRED, "synthetic: Gaussian noise sigma"),
        "stream_seed": (int, "0", "synthetic: generator seed"),
    },
    "file": {
        "path": (str, _REQUIRED, "file: feature file path"),
        "normalize": (bool, str(StreamSpec.normalize).lower(), "file: L2-normalize features"),
    },
}

# Without a valid source every stream key is type-checked, and none is required.
_ANY_STREAM_KEYS = {key: (convert, None, text) for table in (_STREAM_KEYS, *_SOURCE_KEYS.values())
                    for key, (convert, _, text) in table.items()}

_CELL_KEYS: dict[str, _Key] = {
    "protocol": (_protocol, _REQUIRED, "iid | streaming"),
    "strategy": (parse_strategy, _REQUIRED, "napping | from_scratch | finetuning"),
    "architecture": (_architecture, "linear", "linear | mlp:<hidden>"),
    "alpha": (parse_policy, "fixed:1.0", "fixed:<value> | dynamic:<coefficient>"),
    "buffer_capacity": (int, _REQUIRED, "replay buffer size k"),
    "train_fraction": (float, None, "iid only: train split fraction in (0,1)"),
    "n_seeds": (int, "5", "runs per cell"),
    "base_seed": (int, "0", "first run seed"),
    "lr": (float, None, "learning rate (default 1.0 linear, 0.1 mlp)"),
    "momentum": (float, str(Hyperparams.momentum), "SGD momentum"),
    "weight_decay": (float, str(Hyperparams.weight_decay), "L2 penalty"),
    "batch": (int, str(Hyperparams.batch_size), "minibatch size"),
    "epochs": (int, str(Hyperparams.epochs), "training epochs"),
    "decay_epoch": (int, str(Hyperparams.decay_epoch), "decay lr after this many epochs"),
    "decay_factor": (float, str(Hyperparams.decay_factor), "lr decay multiplier"),
}

_CURATE_KEYS: dict[str, _Key] = {
    "per_class_top": (int, _REQUIRED, "head ids retrieved per class"),
    "background_low": (int, _REQUIRED, "lowest-scoring ids per class feeding the background pool"),
    "final_per_class": (int, _REQUIRED, "final balanced count per class (background included)"),
    "seed": (int, "0", "subsample seed"),
    "reject_file": (str, None, "optional path with one id per line to drop before finalizing"),
}

# Config key of each dataclass field whose name differs from it.
_FIELD_KEYS = {"C": "classes", "d": "dim", "N": "buckets", "n_buckets": "buckets",
               "n_per_class": "per_class", "seed": "stream_seed", "learning_rate": "lr",
               "batch_size": "batch", "arch_text": "architecture", "policy": "alpha",
               "background_low_per_class": "background_low"}


@dataclass
class _Section:
    name: str
    lineno: int
    entries: dict[str, tuple[str, int]]
    rejected: set[str] = field(default_factory=set)  # keys whose values _read_keys rejected


def _parse_sections(text: str) -> list[_Section]:
    """The sections of a ``key = value`` text; the first, named ``""``, holds keys before any header."""
    current = _Section(name="", lineno=0, entries={})
    sections = [current]
    for lineno, raw in text_lines(text):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {line!r}")
            current = _Section(name=line[1:-1].strip(), lineno=lineno, entries={})
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in current.entries:
            first = current.entries[key][1]
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {first})")
        current.entries[key] = (value, lineno)
    return sections


def _at(section: _Section, key: str) -> str:
    """Where a diagnostic on ``key`` points: its line, else its section header (the spec has none)."""
    if key in section.entries:
        return f"line {section.entries[key][1]}: "
    return f"section [{section.name}] (line {section.lineno}): " if section.lineno else ""


def _convert(convert: Callable[[str], Any], text: str) -> Any:
    """``convert(text)``, one spelling per value: ``true`` or ``false``, and numbers as :func:`parse_int64` or :func:`parse_float` read them."""
    if convert is bool:
        if text not in ("true", "false"):
            raise ValueError(text)
        return text == "true"
    return {int: parse_int64, float: parse_float}.get(convert, convert)(text)


def _read_keys(
    section: _Section, keys: dict[str, _Key], diags: list[str], foreign: Mapping[str, str] = {}
) -> dict[str, Any]:
    """The section's values converted by ``keys``, with defaults filled in.

    Each bad entry gets one diagnostic at its line: an unknown key (with a
    did-you-mean hint), a key of ``foreign`` (with why it is out of place) or
    a value its converter rejects, which is added to ``section.rejected``.
    A required key is reported missing only when it has no entry.  A rejected
    optional value is replaced by its default, so the checks that follow see
    the rest of the section; a check across keys skips a rejected one.
    """
    values: dict[str, Any] = {}
    for key, (raw, lineno) in section.entries.items():
        if key in foreign:
            diags.append(f"line {lineno}: key {key!r} {foreign[key]}")
        elif key not in keys:
            hint = difflib.get_close_matches(key, [*keys, *foreign], n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            diags.append(f"line {lineno}: unknown key {key!r}{suffix}")
        else:
            convert = keys[key][0]
            try:
                values[key] = _convert(convert, raw)
            except ValueError as exc:
                section.rejected.add(key)
                typed = f"key {key!r}: expected {convert.__name__}, got {raw!r}"
                diags.append(f"line {lineno}: {typed if isinstance(convert, type) else exc}")
    for key, (convert, default, _) in keys.items():
        if key in values:
            continue
        if default is _REQUIRED:
            if key not in section.entries:
                diags.append(f"{_at(section, key)}missing required key {key!r}")
        elif default is not None:
            values[key] = _convert(convert, default)
    return values


def _build(section: _Section, cls: type, values: dict[str, Any], diags: list[str], **given: Any) -> Any:
    """``cls`` from ``given`` and the values of its fields' keys; a range error is reported at the key's line.

    An error that reads a rejected key's stand-in default is left out: that key has its diagnostic.
    """
    kwargs = {f.name: values[key] for f in fields(cls) if (key := _FIELD_KEYS.get(f.name, f.name)) in values}
    try:
        return cls(**(kwargs | given))
    except FieldValueError as exc:
        keys = [_FIELD_KEYS.get(name, name) for name in (exc.field, *exc.others)]
        if section.rejected.isdisjoint(keys):
            diags.append(f"{_at(section, keys[0])}key {keys[0]!r} {exc.requirement}")
        return None


def _build_stream_spec(section: _Section, diags: list[str]) -> StreamSpec | None:
    source = section.entries.get("source", ("",))[0]
    if source not in _SOURCE_KEYS:
        _read_keys(section, _ANY_STREAM_KEYS, diags)
        diags.append(f"{_at(section, 'source')}source must be 'synthetic' or 'file'")
        return None
    keys = {**_STREAM_KEYS, **_SOURCE_KEYS[source]}
    foreign = {key: f"is not valid for source={source}"
               for other, table in _SOURCE_KEYS.items() if other != source for key in table}
    values = _read_keys(section, keys, diags, foreign)
    if values.keys() != keys.keys():  # a required key is missing or bad: the rest have defaults
        return None
    if values["buckets"] < 1:
        diags.append(f"{_at(section, 'buckets')}key 'buckets' must be >= 1")
        return None
    if source == "file":
        return _build(section, StreamSpec, values, diags)
    drift = _build(section, DriftConfig, values, diags)
    return None if drift is None else _build(section, StreamSpec, values, diags, drift=drift)


def _build_cell(section: _Section, diags: list[str]) -> CellConfig | None:
    name = section.name.split(":", 1)[1].strip()
    if not name or not all(c.isalnum() or c in "._-" for c in name):
        diags.append(
            f"line {section.lineno}: cell name {name!r} must be non-empty and "
            "use only letters, digits, '.', '_' or '-'"
        )
        return None
    start = len(diags)
    values = _read_keys(section, _CELL_KEYS, diags)
    protocol, train_fraction = values.get("protocol"), values.get("train_fraction")
    if protocol is ProtocolKind.IID and "train_fraction" not in section.rejected:
        if train_fraction is None:
            diags.append(f"{_at(section, 'train_fraction')}iid cells require train_fraction")
        elif not 0.0 < train_fraction < 1.0:
            diags.append(f"{_at(section, 'train_fraction')}train_fraction must be in (0, 1)")
    elif protocol is ProtocolKind.STREAMING and train_fraction is not None:
        diags.append(f"{_at(section, 'train_fraction')}train_fraction applies to iid cells only")

    values.setdefault("lr", 0.1 if values["architecture"].startswith("mlp") else 1.0)
    hyperparams = _build(section, Hyperparams, values, diags)
    if values["n_seeds"] < 1:
        diags.append(f"{_at(section, 'n_seeds')}n_seeds must be >= 1")
    if values["base_seed"] < 0:
        diags.append(f"{_at(section, 'base_seed')}base_seed must be >= 0")
    if values.get("buffer_capacity", 1) < 1:
        diags.append(f"{_at(section, 'buffer_capacity')}buffer_capacity must be >= 1")
    if len(diags) > start:
        return None
    return _build(section, CellConfig, values, diags,
                  name=name, hyperparams=hyperparams, train_fraction=train_fraction)


def validate_config(text: str, out_dir: str | Path) -> ExperimentGrid:
    """Parse and type-check a config; raises :class:`ConfigError` listing every diagnostic."""
    top, *sections = _parse_sections(text)
    diags = [f"line {lineno}: key {key!r} outside any section"
             for key, (_, lineno) in top.entries.items()]
    stream_sections = [s for s in sections if s.name == "stream"]
    cell_sections = [s for s in sections if s.name.startswith("cell:")]
    for s in sections:
        if s.name != "stream" and not s.name.startswith("cell:"):
            diags.append(f"line {s.lineno}: unknown section [{s.name}] (expected [stream] or [cell:<name>])")
    if len(stream_sections) != 1:
        diags.append(f"config must contain exactly one [stream] section, found {len(stream_sections)}")
    if not cell_sections:
        diags.append("config must contain at least one [cell:<name>] section")

    stream_spec = _build_stream_spec(stream_sections[0], diags) if len(stream_sections) == 1 else None
    cells = []
    for s in cell_sections:
        cell = _build_cell(s, diags)
        if cell is not None:
            cells.append(cell)
    names = [c.name for c in cells]
    if len(set(names)) != len(names):
        diags.append("cell names must be unique")
    if diags:
        raise ConfigError("\n".join(diags))
    assert stream_spec is not None
    return ExperimentGrid(stream=stream_spec, cells=tuple(cells), out_dir=Path(out_dir))


def _key_lines(*tables: dict[str, _Key]) -> list[str]:
    return [f"  {key:<16} {text}" + (f" (default {default})" if isinstance(default, str) else "")
            for table in tables for key, (_, default, text) in table.items()]


def config_reference() -> str:
    """Human-readable listing of every config key, used by the CLI help text."""
    return "\n".join(["[stream] keys:", *_key_lines(_STREAM_KEYS, *_SOURCE_KEYS.values()),
                      "[cell:<name>] keys:", *_key_lines(_CELL_KEYS)])


def curation_reference() -> str:
    """Human-readable listing of every curation spec key, used by the CLI help text."""
    return "\n".join(["curation spec keys:", *_key_lines(_CURATE_KEYS)])


@dataclass(frozen=True)
class CurationConfig:
    """A type-checked curation spec: its values, and the file and lines they were read from."""

    path: str
    section: _Section
    values: dict[str, Any]

    def spec(self, queries: Sequence[tuple[str, Any]]) -> CurationSpec:
        """The spec's counts with ``queries``; a count out of range is named at its line."""
        diags: list[str] = []
        spec = _build(self.section, CurationSpec, self.values, diags, queries=tuple(queries))
        if spec is None:
            raise ConfigError(f"{self.path}: {diags[0]}")
        return spec


def read_curation_spec(path: str) -> CurationConfig:
    """Read and type-check a curation spec, a run config without sections; errors name the file."""
    text = read_text(path, ConfigError)
    try:
        section, *extra = _parse_sections(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    diags = [f"line {s.lineno}: unexpected section [{s.name}]" for s in extra]
    values = _read_keys(section, _CURATE_KEYS, diags)
    if values["seed"] < 0:
        diags.append(f"{_at(section, 'seed')}key 'seed' must be >= 0")
    if diags:
        raise ConfigError("\n".join(f"{path}: {diag}" for diag in diags))
    return CurationConfig(path, section, values)


def load_stream(spec: StreamSpec) -> TemporalStream:
    """Materialize the stream a grid runs on."""
    if spec.source == "synthetic":
        assert spec.drift is not None
        return generate_drift_stream(spec.drift)
    assert spec.path is not None
    ids, timestamps, labels, x, class_count = read_feature_file(spec.path, spec.normalize)
    try:
        return bucketize(ids, timestamps, x, labels, spec.n_buckets, class_count)
    except ValueError as exc:
        raise ValueError(f"{spec.path}: {exc}") from None


def _write_artifact(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` in the staged run tree, each as it comes; a file cut short goes with its failed seed's files or with the staged tree."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


# A unit is one seed of one cell: the cell, its output directory and the seed.
_Unit = tuple[CellConfig, Path, int]
# A unit's outcome: its metrics, or the error text of its failure.
_Outcome = MetricReport | str

def _run_unit(stream: TemporalStream, cell: CellConfig, cell_dir: Path, seed: int) -> MetricReport:
    """Run ``cell`` at ``seed``, write that seed's matrix and event log to ``cell_dir`` and return its metrics.

    A unit only reads the stream and writes only its own seed's files, so
    units may run in any order and in any process.
    """
    cfg = RunConfig(
        strategy=cell.strategy,
        architecture=parse_architecture(cell.arch_text, d=stream.d, C=stream.C),
        hyperparams=cell.hyperparams,
        alpha_policy=cell.policy,
        buffer_capacity=cell.buffer_capacity,
        train_fraction=cell.train_fraction,
    )
    runner = run_iid_protocol if cell.protocol is ProtocolKind.IID else run_streaming_protocol
    matrix = runner(stream, cfg, seed)
    _write_artifact(cell_dir / f"matrix_seed{seed}.txt", _matrix_lines(matrix))
    _write_artifact(cell_dir / f"events_seed{seed}.log", _step_log_chunks(matrix.protocol, matrix.n))
    return compute_metrics(matrix)


def _run_units(stream: TemporalStream, units: list[_Unit]) -> list[_Outcome | None]:
    """Run every unit; return each one's outcome, or None where an earlier seed of its cell failed first.

    With P = :func:`_process_count` processes, unit k runs in share k mod P
    of :func:`_fork_shares`, in order; a cell stops at its first failing
    seed, so its later units in that share are skipped.  The workers share
    the stream copy-on-write and write their units' files themselves.  Share
    0 puts its outcomes straight into the list; a worker appends one pickled
    ``(index, outcome)`` per unit to its file, each with a single write, so
    a kill can cut short only the last record.  Once every worker is reaped,
    this process reads the outcomes they recorded; a worker that died fails
    every unit it did not record, naming its exit status or signal.
    """
    processes = _process_count(len(units))
    outcomes: list[_Outcome | None] = [None] * len(units)

    def share(first: int, file: BinaryIO | None) -> None:
        failed: set[str] = set()
        for k in range(first, len(units), processes):
            cell, cell_dir, seed = units[k]
            if cell.name in failed:
                continue
            try:
                outcome: _Outcome = _run_unit(stream, cell, cell_dir, seed)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                failed.add(cell.name)
                outcome = f"{type(exc).__name__}: {exc}"
            if file is None:
                outcomes[k] = outcome
            elif os.write(file.fileno(), data := pickle.dumps((k, outcome))) < len(data):
                raise OSError(f"wrote part of unit {k}'s outcome record")

    with _fork_shares(processes, share) as workers:
        for first, (code, file) in enumerate(workers, start=1):
            with contextlib.suppress(EOFError, pickle.UnpicklingError):  # the end, or a cut record
                while True:
                    k, outcome = pickle.load(file)
                    outcomes[k] = outcome
            if code:
                for k in range(first, len(units), processes):
                    if outcomes[k] is None:
                        outcomes[k] = f"ChildProcessError: the worker process running this seed {_exit_text(code)}"
    return outcomes


# What a run writes: these files at the top, and cell directories holding only files named like these.
_RUN_FILES = ("stream_manifest.tsv", "summary.csv")
_CELL_FILES = ("matrix_seed*.txt", "events_seed*.log", "report.txt", "error.txt")


def _foreign_path(out: Path) -> Path | None:
    """The first path under ``out`` that no run writes, or None when ``out`` is missing, empty or a run tree."""
    for entry in sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []:
        if entry.is_dir():
            inner = [p for p in sorted(entry.iterdir())
                     if not (p.is_file() and any(p.match(pattern) for pattern in _CELL_FILES))]
            if inner:
                return inner[0]
        elif not entry.is_file() or entry.name not in _RUN_FILES:
            return entry
    return None


def run_experiment(grid: ExperimentGrid) -> ExperimentResult:
    """Execute every (cell, seed) unit, writing matrices, event logs, per-cell reports, and a summary CSV.

    Cells share nothing; a failure in one cell is recorded in its own
    directory and does not disturb the others.  A cell stops at its first
    failing seed: the seeds before it keep their files.  A cell's seeds are
    ``range(base_seed, base_seed + n_seeds)``: the grid alone decides the tree.

    The units run in :func:`_process_count` processes, each writing its own
    units' matrices and event logs; the files are the same for any count.
    Once every unit is in, this process settles the cells in grid order:
    each gets ``report.txt``, or ``error.txt`` with its first failure's text;
    ``summary.csv`` gets the reports' rows.  When a seed fails, its files and
    those of its cell's later seeds are removed.

    The run is written into a fresh sibling of the output directory, which
    replaces it once the run completes: a reused directory ends as the tree
    a fresh run writes, and a run that raises leaves it as it was.  An
    existing output directory that holds anything a run does not write is
    refused with :class:`FileExistsError` naming that path.
    """
    out = grid.out_dir.resolve()  # a symbolic link keeps pointing at the run
    if (foreign := _foreign_path(out)) is not None:
        raise FileExistsError(f"{foreign}: not written by a driftbench run; refusing to replace {out}")
    out.parent.mkdir(parents=True, exist_ok=True)
    staged = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    aside = staged.with_name(staged.name + ".old")
    try:
        result = _run_grid(grid, staged)
        umask = os.umask(0)
        os.umask(umask)
        staged.chmod(0o777 & ~umask)  # the mode mkdir would give, not mkdtemp's 0o700
        if out.exists():
            out.rename(aside)
        try:
            staged.rename(out)
        except BaseException:
            if aside.exists():
                aside.rename(out)
            raise
    finally:
        shutil.rmtree(staged, ignore_errors=True)
        shutil.rmtree(aside, ignore_errors=True)
    return result


def _run_grid(grid: ExperimentGrid, out_dir: Path) -> ExperimentResult:
    """:func:`run_experiment` into the empty directory ``out_dir``."""
    stream = load_stream(grid.stream)
    _write_artifact(out_dir / "stream_manifest.tsv", [stream_manifest(stream)])

    units: list[_Unit] = []
    for cell in grid.cells:
        cell_dir = out_dir / cell.name
        cell_dir.mkdir()
        units.extend((cell, cell_dir, seed) for seed in range(cell.base_seed, cell.base_seed + cell.n_seeds))
    outcomes = _run_units(stream, units)

    reports: dict[str, AggregateReport] = {}
    failures: dict[str, str] = {}
    lines = ["cell,metric,mean,std"]
    start = 0
    for cell in grid.cells:
        cell_units, cell_outcomes = units[start : start + cell.n_seeds], outcomes[start : start + cell.n_seeds]
        start += cell.n_seeds
        cell_dir = out_dir / cell.name
        failed = next((j for j, outcome in enumerate(cell_outcomes) if isinstance(outcome, str)), None)
        if failed is None:
            try:
                agg = aggregate(cell_outcomes)
                _write_artifact(cell_dir / "report.txt", [report_text(agg)])
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                error = f"{type(exc).__name__}: {exc}"
                (cell_dir / "report.txt").unlink(missing_ok=True)
            else:
                reports[cell.name] = agg
                lines.extend(csv_rows(cell.name, agg))
                continue
        else:
            error = cell_outcomes[failed]
            # The failed seed may have written its matrix, and with P > 1 another process its cell's later seeds.
            for _, _, seed in cell_units[failed:]:
                (cell_dir / f"matrix_seed{seed}.txt").unlink(missing_ok=True)
                (cell_dir / f"events_seed{seed}.log").unlink(missing_ok=True)
        failures[cell.name] = error
        _write_artifact(cell_dir / "error.txt", [error, "\n"])
    _write_artifact(out_dir / "summary.csv", [line + "\n" for line in lines])
    return ExperimentResult(reports=reports, failures=failures)
