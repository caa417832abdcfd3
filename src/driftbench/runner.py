"""Experiment driver: config parsing, grid expansion, execution, and artifact emission."""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass
from pathlib import Path

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


# One (type, help text) entry per accepted key.  Presence checks that depend
# on other keys are handled in the build step below.
_STREAM_KEYS: dict[str, tuple[type, str]] = {
    "source": (str, "synthetic | file"),
    "buckets": (int, "number of buckets N"),
    "classes": (int, "synthetic: class count"),
    "dim": (int, "synthetic: feature dimension"),
    "per_class": (int, "synthetic: samples per class per bucket"),
    "radius": (float, "synthetic: class-circle radius (default 1.0)"),
    "drift_rate": (float, "synthetic: radians of rotation per bucket (default 0.0)"),
    "noise": (float, "synthetic: Gaussian noise sigma"),
    "stream_seed": (int, "synthetic: generator seed (default 0)"),
    "path": (str, "file: feature file path"),
    "normalize": (bool, "file: L2-normalize features (default false)"),
}

_CELL_KEYS: dict[str, tuple[type, str]] = {
    "protocol": (str, "iid | streaming"),
    "strategy": (str, "napping | from_scratch | finetuning"),
    "architecture": (str, "linear | mlp:<hidden> (default linear)"),
    "alpha": (str, "fixed:<value> | dynamic:<coefficient> (default fixed:1.0)"),
    "buffer_capacity": (int, "replay buffer size k"),
    "train_fraction": (float, "iid only: train split fraction in (0,1)"),
    "n_seeds": (int, "runs per cell (default 5)"),
    "base_seed": (int, "first run seed (default 0)"),
    "lr": (float, "learning rate (default 1.0 linear, 0.1 mlp)"),
    "momentum": (float, "SGD momentum (default 0.9)"),
    "weight_decay": (float, "L2 penalty (default 0.0)"),
    "batch": (int, "minibatch size (default 256)"),
    "epochs": (int, "training epochs (default 100)"),
    "decay_epoch": (int, "decay lr after this many epochs (default 60)"),
    "decay_factor": (float, "lr decay multiplier (default 0.1)"),
}

_SYNTHETIC_ONLY = {"classes", "dim", "per_class", "radius", "drift_rate", "noise", "stream_seed"}
_FILE_ONLY = {"path", "normalize"}


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


def _convert(raw: str, target: type, key: str, lineno: int, diags: list[str]):
    try:
        if target is bool:
            if raw.lower() not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw.lower() == "true"
        return target(raw)
    except ValueError:
        diags.append(f"line {lineno}: key {key!r}: expected {target.__name__}, got {raw!r}")
        return None


def _check_keys(
    section: _Section, known: dict[str, tuple[type, str]], diags: list[str]
) -> dict[str, object]:
    values: dict[str, object] = {}
    for key, (raw, lineno) in section.entries.items():
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            diags.append(f"line {lineno}: unknown key {key!r}{suffix}")
            continue
        converted = _convert(raw, known[key][0], key, lineno, diags)
        if converted is not None:
            values[key] = converted
    return values


def _entry_line(section: _Section, key: str) -> str:
    if key in section.entries:
        return f"line {section.entries[key][1]}"
    return f"section [{section.name}] (line {section.lineno})"


# Config key of each DriftConfig, Hyperparams and CurationSpec field whose name differs from it.
_FIELD_KEYS = {"C": "classes", "d": "dim", "N": "buckets", "n_per_class": "per_class",
               "seed": "stream_seed", "learning_rate": "lr", "batch_size": "batch",
               "background_low_per_class": "background_low"}


def _field_diagnostic(section: _Section, exc: FieldValueError) -> str:
    key = _FIELD_KEYS.get(exc.field, exc.field)
    return f"{_entry_line(section, key)}: key {key!r} {exc.requirement}"


def _build_stream_spec(section: _Section, diags: list[str]) -> StreamSpec | None:
    values = _check_keys(section, _STREAM_KEYS, diags)
    source = values.get("source")
    if source not in ("synthetic", "file"):
        diags.append(f"{_entry_line(section, 'source')}: source must be 'synthetic' or 'file'")
        return None
    wrong = _FILE_ONLY if source == "synthetic" else _SYNTHETIC_ONLY
    for key in sorted(wrong & set(values)):
        diags.append(f"{_entry_line(section, key)}: key {key!r} is not valid for source={source}")
    if "buckets" not in values:
        diags.append(f"{_entry_line(section, 'buckets')}: missing required key 'buckets'")
        return None
    n_buckets = int(values["buckets"])  # type: ignore[arg-type]
    if source == "synthetic":
        missing = [k for k in ("classes", "dim", "per_class", "noise") if k not in values]
        for k in missing:
            diags.append(f"{_entry_line(section, k)}: missing required key {k!r}")
        if missing:
            return None
        try:
            drift = DriftConfig(
                C=values["classes"],
                d=values["dim"],
                N=n_buckets,
                n_per_class=values["per_class"],
                radius=values.get("radius", 1.0),
                drift_rate=values.get("drift_rate", 0.0),
                noise=values["noise"],
                seed=values.get("stream_seed", 0),
            )
        except FieldValueError as exc:
            diags.append(_field_diagnostic(section, exc))
            return None
        return StreamSpec(source="synthetic", drift=drift, n_buckets=n_buckets)
    if "path" not in values:
        diags.append(f"{_entry_line(section, 'path')}: missing required key 'path'")
        return None
    return StreamSpec(
        source="file",
        path=str(values["path"]),
        normalize=bool(values.get("normalize", False)),
        n_buckets=n_buckets,
    )


def _build_cell(section: _Section, diags: list[str]) -> CellConfig | None:
    name = section.name.split(":", 1)[1].strip()
    if not name or not all(c.isalnum() or c in "._-" for c in name):
        diags.append(
            f"line {section.lineno}: cell name {name!r} must be non-empty and "
            "use only letters, digits, '.', '_' or '-'"
        )
        return None
    values = _check_keys(section, _CELL_KEYS, diags)
    start = len(diags)
    # Presence is checked on the raw entries: a key whose value failed to
    # convert has been reported once already.

    protocol: ProtocolKind | None = None
    if "protocol" not in section.entries:
        diags.append(f"{_entry_line(section, 'protocol')}: missing required key 'protocol'")
    else:
        try:
            protocol = ProtocolKind(str(values["protocol"]))
        except ValueError:
            diags.append(f"{_entry_line(section, 'protocol')}: protocol must be 'iid' or 'streaming'")

    strategy: Strategy | None = None
    if "strategy" not in section.entries:
        diags.append(f"{_entry_line(section, 'strategy')}: missing required key 'strategy'")
    else:
        try:
            strategy = parse_strategy(str(values["strategy"]))
        except ValueError as exc:
            diags.append(f"{_entry_line(section, 'strategy')}: {exc}")

    arch_text = str(values.get("architecture", "linear"))
    try:
        parse_architecture(arch_text, d=1, C=1)
    except ValueError as exc:
        diags.append(f"{_entry_line(section, 'architecture')}: {exc}")

    policy: AlphaPolicy | None = None
    try:
        policy = parse_policy(str(values.get("alpha", "fixed:1.0")))
    except ValueError as exc:
        diags.append(f"{_entry_line(section, 'alpha')}: {exc}")

    if "buffer_capacity" not in section.entries:
        diags.append(f"{_entry_line(section, 'buffer_capacity')}: missing required key 'buffer_capacity'")

    train_fraction = values.get("train_fraction")
    if protocol is ProtocolKind.IID:
        if train_fraction is None:
            diags.append(f"{_entry_line(section, 'train_fraction')}: iid cells require train_fraction")
        elif not 0.0 < float(train_fraction) < 1.0:  # type: ignore[arg-type]
            diags.append(f"{_entry_line(section, 'train_fraction')}: train_fraction must be in (0, 1)")
    elif protocol is ProtocolKind.STREAMING and train_fraction is not None:
        diags.append(
            f"{_entry_line(section, 'train_fraction')}: train_fraction applies to iid cells only"
        )

    default_lr = 0.1 if arch_text.startswith("mlp") else 1.0
    try:
        hp = Hyperparams(
            learning_rate=float(values.get("lr", default_lr)),  # type: ignore[arg-type]
            momentum=float(values.get("momentum", 0.9)),  # type: ignore[arg-type]
            weight_decay=float(values.get("weight_decay", 0.0)),  # type: ignore[arg-type]
            batch_size=int(values.get("batch", 256)),  # type: ignore[arg-type]
            epochs=int(values.get("epochs", 100)),  # type: ignore[arg-type]
            decay_epoch=int(values.get("decay_epoch", 60)),  # type: ignore[arg-type]
            decay_factor=float(values.get("decay_factor", 0.1)),  # type: ignore[arg-type]
        )
    except FieldValueError as exc:
        diags.append(_field_diagnostic(section, exc))
        hp = None  # type: ignore[assignment]

    n_seeds = int(values.get("n_seeds", 5))  # type: ignore[arg-type]
    base_seed = int(values.get("base_seed", 0))  # type: ignore[arg-type]
    if n_seeds < 1:
        diags.append(f"{_entry_line(section, 'n_seeds')}: n_seeds must be >= 1")
    if base_seed < 0:
        diags.append(f"{_entry_line(section, 'base_seed')}: base_seed must be >= 0")
    capacity = int(values.get("buffer_capacity", 1))  # type: ignore[arg-type]
    if "buffer_capacity" in values and capacity < 1:
        diags.append(f"{_entry_line(section, 'buffer_capacity')}: buffer_capacity must be >= 1")

    if len(diags) > start or protocol is None or strategy is None or policy is None or hp is None:
        return None
    return CellConfig(
        name=name,
        protocol=protocol,
        strategy=strategy,
        arch_text=arch_text,
        policy=policy,
        buffer_capacity=capacity,
        hyperparams=hp,
        train_fraction=float(train_fraction) if train_fraction is not None else None,  # type: ignore[arg-type]
        n_seeds=n_seeds,
        base_seed=base_seed,
    )


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


def config_reference() -> str:
    """Human-readable listing of every config key, used by the CLI help text."""
    lines = ["[stream] keys:"]
    lines.extend(f"  {key:<16} {desc}" for key, (_, desc) in _STREAM_KEYS.items())
    lines.append("[cell:<name>] keys:")
    lines.extend(f"  {key:<16} {desc}" for key, (_, desc) in _CELL_KEYS.items())
    return "\n".join(lines)
