"""Run config and curation spec parsing, grid expansion, execution, and artifact emission."""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .corpus import (
    DriftConfig,
    FieldValueError,
    TemporalStream,
    atomic_write,
    bucketize,
    generate_drift_stream,
    read_feature_file,
    stream_manifest,
)
from .curate import CurationSpec
from .learner import Hyperparams, Strategy, parse_architecture, parse_strategy
from .metrics import AggregateReport, aggregate, compute_metrics, csv_rows, report_text
from .protocol import (
    ProtocolKind,
    RunConfig,
    _step_log_text,
    matrix_to_text,
    run_iid_protocol,
    run_streaming_protocol,
)
from .sampler import AlphaPolicy, parse_policy

SEED_ENV_VAR = "DRIFTBENCH_SEED"


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


def _parse_sections(text: str) -> list[_Section]:
    """The sections of a ``key = value`` text; the first, named ``""``, holds keys before any header."""
    current = _Section(name="", lineno=0, entries={})
    sections = [current]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
    if convert is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(text)
        return text.lower() == "true"
    return convert(text)


def _read_keys(
    section: _Section, keys: dict[str, _Key], diags: list[str], foreign: Mapping[str, str] = {}
) -> dict[str, Any]:
    """The section's values converted by ``keys``, with defaults filled in.

    Each bad entry gets one diagnostic at its line: an unknown key (with a
    did-you-mean hint), a key of ``foreign`` (with why it is out of place) or
    a value its converter rejects.  A required key is reported missing only
    when it has no entry.  A rejected optional value is replaced by its
    default, so the checks that follow see the rest of the section.
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
    """``cls`` from ``given`` and the values of its fields' keys; a range error is reported at the key's line."""
    kwargs = {f.name: values[key] for f in fields(cls) if (key := _FIELD_KEYS.get(f.name, f.name)) in values}
    try:
        return cls(**(kwargs | given))
    except FieldValueError as exc:
        key = _FIELD_KEYS.get(exc.field, exc.field)
        diags.append(f"{_at(section, key)}key {key!r} {exc.requirement}")
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
    if protocol is ProtocolKind.IID:
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
    try:
        section, *extra = _parse_sections(Path(path).read_text(encoding="utf-8"))
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
    return bucketize(ids, timestamps, x, labels, spec.n_buckets, class_count)


def _write_artifact(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _run_cell(stream: TemporalStream, cell: CellConfig, cell_dir: Path, base_seed: int) -> AggregateReport:
    cfg = RunConfig(
        strategy=cell.strategy,
        architecture=parse_architecture(cell.arch_text, d=stream.d, C=stream.C),
        hyperparams=cell.hyperparams,
        alpha_policy=cell.policy,
        buffer_capacity=cell.buffer_capacity,
        train_fraction=cell.train_fraction,
    )
    runner = run_iid_protocol if cell.protocol is ProtocolKind.IID else run_streaming_protocol
    cell_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for seed in range(base_seed, base_seed + cell.n_seeds):
        matrix = runner(stream, cfg, seed)
        _write_artifact(cell_dir / f"matrix_seed{seed}.txt", matrix_to_text(matrix))
        _write_artifact(
            cell_dir / f"events_seed{seed}.log", _step_log_text(matrix.protocol, matrix.n)
        )
        reports.append(compute_metrics(matrix))
    agg = aggregate(reports)
    _write_artifact(cell_dir / "report.txt", report_text(agg))
    return agg


def run_experiment(grid: ExperimentGrid) -> ExperimentResult:
    """Execute every cell in turn, writing matrices, event logs, per-cell reports, and a summary CSV.

    Cells share nothing; a failure in one cell is recorded in its own
    directory and does not disturb the others.  ``DRIFTBENCH_SEED`` overrides
    every cell's base seed when set.
    """
    env_seed = os.environ.get(SEED_ENV_VAR)
    try:
        env_base = None if env_seed is None else int(env_seed)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    if env_base is not None and env_base < 0:
        raise ConfigError(f"{SEED_ENV_VAR} must be >= 0, got {env_seed!r}")
    grid.out_dir.mkdir(parents=True, exist_ok=True)
    stream = load_stream(grid.stream)
    _write_artifact(grid.out_dir / "stream_manifest.tsv", stream_manifest(stream))

    reports: dict[str, AggregateReport] = {}
    failures: dict[str, str] = {}
    for cell in grid.cells:
        cell_dir = grid.out_dir / cell.name
        base = cell.base_seed if env_base is None else env_base
        try:
            reports[cell.name] = _run_cell(stream, cell, cell_dir, base)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures[cell.name] = f"{type(exc).__name__}: {exc}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            _write_artifact(cell_dir / "error.txt", failures[cell.name] + "\n")

    lines = ["cell,metric,mean,std"]
    for cell in grid.cells:
        if cell.name in reports:
            lines.extend(csv_rows(cell.name, reports[cell.name]))
    _write_artifact(grid.out_dir / "summary.csv", "\n".join(lines) + "\n")
    return ExperimentResult(reports=reports, failures=failures)
