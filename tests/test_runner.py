import ctypes
import dataclasses
import importlib
import multiprocessing
import os
import pickle
import re
import signal
from pathlib import Path

import numpy as np
import pytest

import driftbench.corpus as corpus_module
import driftbench.learner as learner_module
import driftbench.protocol as protocol_module
import driftbench.runner as runner_module
from driftbench.cli import main
from driftbench.corpus import DriftConfig, Sample, generate_drift_stream, write_feature_file
from driftbench.protocol import (
    LEARNER_SEED_OFFSET,
    Event,
    ProtocolKind,
    audit_streaming_order,
    matrix_from_text,
    parse_event_log,
)
from driftbench.curate import EmbeddingRecord
from driftbench.sampler import parse_policy
from driftbench.runner import (
    ConfigError,
    config_reference,
    load_stream,
    run_experiment,
    validate_config,
)

GOOD_CONFIG = """\
[stream]
source = synthetic
classes = 3
dim = 4
buckets = 3
per_class = 30
noise = 0.3
drift_rate = 0.2
stream_seed = 7

[cell:ft-fast]
protocol = streaming
strategy = finetuning
alpha = fixed:1.0
buffer_capacity = 90
n_seeds = 1
base_seed = 0
lr = 0.5
batch = 32
epochs = 3
decay_epoch = 2
"""

# The paper-scale grid: C=11, d=128, N=10 buckets of 3,300 samples, 20 epochs,
# an iid linear finetuning cell and a streaming mlp:64 from-scratch cell, 2 seeds.
PAPER_GRID_CONFIG = """\
[stream]
source = synthetic
classes = 11
dim = 128
buckets = 10
per_class = 300
noise = 0.3
drift_rate = 0.157
stream_seed = 0
""" + "".join(
    f"[cell:{name}]\nprotocol = {protocol}\nn_seeds = 2\nbase_seed = 0\n"
    f"strategy = {strategy}\narchitecture = {arch}\n{extra}lr = {lr}\n"
    "buffer_capacity = 3300\nbatch = 256\nepochs = 20\ndecay_epoch = 15\n"
    for name, protocol, strategy, arch, extra, lr in [
        ("iid-linear-finetuning", "iid", "finetuning", "linear", "train_fraction = 0.7\n", 0.5),
        ("streaming-mlp64-from_scratch", "streaming", "from_scratch", "mlp:64", "", 0.1),
    ]
)


def use_processes(monkeypatch, processes):
    """Run each grid in ``processes`` processes (fewer for fewer units), whatever the BLAS thread settings."""
    monkeypatch.setattr(runner_module, "_process_count", lambda units: min(units, processes))


def tree(root):
    """Every file under ``root``, by its path relative to ``root``, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


DIVERGED_CELL = (
    "\n[cell:diverged]\nprotocol = streaming\nstrategy = finetuning\n"
    "architecture = mlp:16\nalpha = fixed:1.0\nbuffer_capacity = 90\nn_seeds = 1\n"
    "lr = 1e300\nbatch = 32\nepochs = 3\ndecay_epoch = 2\n"
)
# GOOD_CONFIG's cell with two seeds, then a one-seed cell at seed 5.
TWO_SEED_CONFIG = GOOD_CONFIG.replace("n_seeds = 1", "n_seeds = 2") + (
    "\n[cell:other]\nprotocol = streaming\nstrategy = from_scratch\nalpha = dynamic:1.0\n"
    "buffer_capacity = 60\nn_seeds = 1\nbase_seed = 5\nlr = 0.5\nbatch = 32\nepochs = 2\ndecay_epoch = 1\n"
)


def fail_seed(monkeypatch, failing_seed):
    """Make every cell's seed ``failing_seed`` raise in its first training step."""
    real_step = protocol_module.strategy_step

    def failing_step(strategy, prev, i, x, y, hp, arch, rows):
        if hp.seed - LEARNER_SEED_OFFSET - i == failing_seed:
            raise FloatingPointError("training diverged")
        return real_step(strategy, prev, i, x, y, hp, arch, rows)

    monkeypatch.setattr(protocol_module, "strategy_step", failing_step)


# The long-stream bench workload at seed 0: N=400 buckets of 4 samples, one
# streaming finetuning cell with a 64-sample FIFO buffer and 1 epoch, 2 seeds.
LONG_STREAM_CONFIG = """\
[stream]
source = synthetic
classes = 4
dim = 8
buckets = 400
per_class = 1
noise = 0.3
drift_rate = 0.157
stream_seed = 0
[cell:streaming-finetuning-fifo]
protocol = streaming
n_seeds = 2
base_seed = 0
strategy = finetuning
alpha = dynamic:1.0
buffer_capacity = 64
epochs = 1
decay_epoch = 1
lr = 0.5
"""


FILE_CONFIG = "[stream]\nsource = file\npath = feats.tsv\nbuckets = 2\nnormalize = true\n" + (
    GOOD_CONFIG.split("[cell:ft-fast]")[1].join(["[cell:ft-fast]", ""])
)

# Only the keys that have no default, plus an mlp cell for lr's second default.
MINIMAL_CELLS = """\
[cell:plain]
protocol = streaming
strategy = finetuning
buffer_capacity = 90
[cell:wide]
protocol = streaming
strategy = finetuning
buffer_capacity = 90
architecture = mlp:4
"""
MINIMAL_SYNTHETIC = """\
[stream]
source = synthetic
classes = 3
dim = 4
buckets = 3
per_class = 30
noise = 0.3
"""
MINIMAL_FILE = "[stream]\nsource = file\npath = feats.tsv\nbuckets = 2\n"


def without(text, key):
    """``text`` with the line that sets ``key`` removed."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(f"{key} ="))


def write_drift_file(path, cfg, C):
    """A synthetic stream written as a feature file whose header declares ``C`` classes."""
    stream = generate_drift_stream(cfg)
    rows = np.arange(len(stream.ids))
    write_feature_file(path, stream.ids, stream.timestamps, stream.y, stream.x, rows, C)


class TestValidateConfig:
    def test_good_config_parses(self, tmp_path):
        grid = validate_config(GOOD_CONFIG, tmp_path)
        assert grid.stream.source == "synthetic"
        assert grid.stream.drift == DriftConfig(
            C=3, d=4, N=3, n_per_class=30, radius=1.0, drift_rate=0.2, noise=0.3, seed=7
        )
        (cell,) = grid.cells
        assert cell.name == "ft-fast"
        assert cell.protocol is ProtocolKind.STREAMING
        assert cell.hyperparams.learning_rate == 0.5
        assert cell.hyperparams.epochs == 3

    def test_unknown_key_suggests_fix(self, tmp_path):
        bad = GOOD_CONFIG.replace("alpha = fixed:1.0", "aplha = fixed:1.0")
        with pytest.raises(ConfigError, match=r"aplha.*did you mean 'alpha'"):
            validate_config(bad, tmp_path)

    def test_dynamic_alpha_parses(self, tmp_path):
        text = GOOD_CONFIG.replace("alpha = fixed:1.0", "alpha = dynamic:0.75")
        grid = validate_config(text, tmp_path)
        assert grid.cells[0].policy.value == 0.75

    def test_train_fraction_range_error(self, tmp_path):
        text = GOOD_CONFIG.replace("protocol = streaming", "protocol = iid")
        text += "train_fraction = 1.2\n"
        with pytest.raises(ConfigError, match="train_fraction must be in"):
            validate_config(text, tmp_path)

    def test_iid_requires_train_fraction(self, tmp_path):
        text = GOOD_CONFIG.replace("protocol = streaming", "protocol = iid")
        with pytest.raises(ConfigError, match="train_fraction"):
            validate_config(text, tmp_path)

    def test_streaming_rejects_train_fraction(self, tmp_path):
        with pytest.raises(ConfigError, match="iid cells only"):
            validate_config(GOOD_CONFIG + "train_fraction = 0.7\n", tmp_path)

    def test_diagnostics_carry_line_numbers(self, tmp_path):
        bad = GOOD_CONFIG.replace("epochs = 3", "epochs = three")
        with pytest.raises(ConfigError, match=r"line \d+.*epochs.*expected int"):
            validate_config(bad, tmp_path)

    def test_multiple_diagnostics_reported_together(self, tmp_path):
        bad = GOOD_CONFIG.replace("epochs = 3", "epochs = three").replace(
            "strategy = finetuning", "strategy = unknown_thing"
        )
        with pytest.raises(ConfigError) as err:
            validate_config(bad, tmp_path)
        assert "epochs" in str(err.value) and "unknown_thing" in str(err.value)

    def test_missing_required_keys(self, tmp_path):
        bad = GOOD_CONFIG.replace("buffer_capacity = 90\n", "")
        with pytest.raises(ConfigError, match="buffer_capacity"):
            validate_config(bad, tmp_path)

    def test_unconvertible_required_key_reported_once(self, tmp_path):
        bad = GOOD_CONFIG.replace("buffer_capacity = 90", "buffer_capacity = lots")
        with pytest.raises(ConfigError, match="^line 15: key 'buffer_capacity': expected int, got 'lots'$"):
            validate_config(bad, tmp_path)

    @pytest.mark.parametrize("old, new, expected", [
        ("buckets = 3", "buckets = three", "line 5: key 'buckets': expected int, got 'three'"),
        ("dim = 4", "dim = four", "line 4: key 'dim': expected int, got 'four'"),
    ], ids=["buckets", "dim"])
    def test_unconvertible_stream_key_reported_once(self, tmp_path, old, new, expected):
        with pytest.raises(ConfigError) as err:
            validate_config(GOOD_CONFIG.replace(old, new), tmp_path)
        assert str(err.value).splitlines() == [expected]

    # A rejected value's stand-in default must not trip a rule across keys:
    # decay_epoch's default 60 exceeds epochs = 3, epochs' default 100 is below
    # decay_epoch = 150, and a rejected train_fraction is not a missing one.
    @pytest.mark.parametrize("text, expected", [
        pytest.param(GOOD_CONFIG.replace("decay_epoch = 2", "decay_epoch = x"),
                     "line 21: key 'decay_epoch': expected int, got 'x'", id="decay_epoch"),
        pytest.param(GOOD_CONFIG.replace("epochs = 3", "epochs = x")
                     .replace("decay_epoch = 2", "decay_epoch = 150"),
                     "line 20: key 'epochs': expected int, got 'x'", id="epochs"),
        pytest.param(GOOD_CONFIG.replace("protocol = streaming", "protocol = iid") + "train_fraction = x\n",
                     "line 22: key 'train_fraction': expected float, got 'x'", id="train_fraction"),
    ])
    def test_rejected_value_skips_cross_key_rules(self, tmp_path, text, expected):
        with pytest.raises(ConfigError) as err:
            validate_config(text, tmp_path)
        assert str(err.value).splitlines() == [expected]

    # One corruption per case, with the full diagnostic list it gives.
    @pytest.mark.parametrize("text, expected", [
        pytest.param(GOOD_CONFIG.replace("source = synthetic", "source = bogus"),
                     ["line 2: source must be 'synthetic' or 'file'"], id="source-bogus"),
        pytest.param(without(GOOD_CONFIG, "source"),
                     ["section [stream] (line 1): source must be 'synthetic' or 'file'"],
                     id="source-missing"),
        pytest.param(GOOD_CONFIG.replace("protocol = streaming", "protocol = bogus"),
                     ["line 12: protocol must be 'iid' or 'streaming'"], id="protocol"),
        pytest.param(GOOD_CONFIG + "architecture = mlp:x\n",
                     ["line 22: bad hidden width in 'mlp:x'"], id="architecture"),
        pytest.param(GOOD_CONFIG.replace("alpha = fixed:1.0", "alpha = bogus"),
                     ["line 14: expected 'fixed:<value>' or 'dynamic:<coefficient>', got 'bogus'"],
                     id="alpha-kind"),
        pytest.param(GOOD_CONFIG.replace("alpha = fixed:1.0", "alpha = fixed:x"),
                     ["line 14: bad alpha value in 'fixed:x'"], id="alpha-value"),
        pytest.param(FILE_CONFIG.replace("normalize = true", "normalize = maybe"),
                     ["line 5: key 'normalize': expected bool, got 'maybe'"], id="normalize"),
        # Each value has one spelling: no bare "mlp", no case folding, no "-" for "_".
        pytest.param(GOOD_CONFIG + "architecture = mlp\n",
                     ["line 22: expected 'linear' or 'mlp:<hidden>', got 'mlp'"], id="architecture-bare-mlp"),
        pytest.param(GOOD_CONFIG.replace("strategy = finetuning", "strategy = From-Scratch"),
                     ["line 13: unknown strategy 'From-Scratch'; expected one of: napping, from_scratch, finetuning"],
                     id="strategy-spelling"),
        pytest.param(FILE_CONFIG.replace("normalize = true", "normalize = True"),
                     ["line 5: key 'normalize': expected bool, got 'True'"], id="normalize-capitalized"),
        # A number is ASCII, without int()'s and float()'s "_", sign or non-ASCII digits.
        *[pytest.param(GOOD_CONFIG.replace("per_class = 30", f"per_class = {value}"),
                       [f"line 6: key 'per_class': expected int, got {value!r}"], id=f"int-{name}")
          for name, value in [("underscore", "1_0"), ("arabic-indic", "١"), ("plus", "+9"),
                              ("fullwidth", "３０")]],
        *[pytest.param(GOOD_CONFIG.replace("noise = 0.3", f"noise = {value}"),
                       [f"line 7: key 'noise': expected float, got {value!r}"], id=f"float-{name}")
          for name, value in [("underscore", "0.3_0"), ("arabic-indic", "٠.3")]],
        *[pytest.param(GOOD_CONFIG + f"architecture = {value}\n",
                       [f"line 22: bad hidden width in {value!r}"], id=f"architecture-{name}")
          for name, value in [("space", "mlp: 64"), ("plus", "mlp:+64"), ("underscore", "mlp:6_4")]],
        pytest.param(GOOD_CONFIG.replace("alpha = fixed:1.0", "alpha = fixed:1_0"),
                     ["line 14: bad alpha value in 'fixed:1_0'"], id="alpha-underscore"),
        pytest.param(FILE_CONFIG.replace("normalize = true", "noise = 0.3"),
                     ["line 5: key 'noise' is not valid for source=file"], id="synthetic-key-in-file"),
        pytest.param(GOOD_CONFIG.replace("stream_seed = 7", "stream_seed = 7\npath = x.tsv"),
                     ["line 10: key 'path' is not valid for source=synthetic"],
                     id="file-key-in-synthetic"),
        *[pytest.param(without(GOOD_CONFIG, key),
                       [f"section [stream] (line 1): missing required key {key!r}"],
                       id=f"synthetic-missing-{key}")
          for key in ("buckets", "classes", "dim", "per_class", "noise")],
        *[pytest.param(without(FILE_CONFIG, key),
                       [f"section [stream] (line 1): missing required key {key!r}"],
                       id=f"file-missing-{key}")
          for key in ("path", "buckets")],
        *[pytest.param(without(GOOD_CONFIG, key),
                       [f"section [cell:ft-fast] (line 11): missing required key {key!r}"],
                       id=f"cell-missing-{key}")
          for key in ("protocol", "strategy", "buffer_capacity")],
        pytest.param(GOOD_CONFIG.replace("n_seeds = 1", "n_seeds = 0"),
                     ["line 16: n_seeds must be >= 1"], id="n_seeds"),
        pytest.param(GOOD_CONFIG.replace("buffer_capacity = 90", "buffer_capacity = 0"),
                     ["line 15: buffer_capacity must be >= 1"], id="buffer_capacity"),
        pytest.param(GOOD_CONFIG.replace("[cell:ft-fast]", "[cell:ft fast]"),
                     ["line 11: cell name 'ft fast' must be non-empty and use only letters, "
                      "digits, '.', '_' or '-'"], id="cell-name"),
    ])
    def test_pinned_diagnostics(self, tmp_path, text, expected):
        with pytest.raises(ConfigError) as err:
            validate_config(text, tmp_path)
        assert str(err.value).splitlines() == expected

    def test_help_defaults_reach_the_parsed_values(self, tmp_path, capsys, monkeypatch):
        """Each "(default X)" in the run and curate help is the value a config without the key gets."""
        help_text = {}
        for command in ("run", "curate"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            help_text[command] = capsys.readouterr().out
        synthetic = validate_config(MINIMAL_SYNTHETIC + MINIMAL_CELLS, tmp_path)
        file_stream = validate_config(MINIMAL_FILE + MINIMAL_CELLS, tmp_path).stream
        plain, wide = synthetic.cells
        cells = {"linear": plain, "mlp": wide}
        parsed = {
            "radius": synthetic.stream.drift.radius,
            "drift_rate": synthetic.stream.drift.drift_rate,
            "stream_seed": synthetic.stream.drift.seed,
            "normalize": file_stream.normalize,
            "architecture": plain.arch_text,
            "alpha": plain.policy,
            "n_seeds": plain.n_seeds,
            "base_seed": plain.base_seed,
            "momentum": plain.hyperparams.momentum,
            "weight_decay": plain.hyperparams.weight_decay,
            "batch": plain.hyperparams.batch_size,
            "epochs": plain.hyperparams.epochs,
            "decay_epoch": plain.hyperparams.decay_epoch,
            "decay_factor": plain.hyperparams.decay_factor,
        }

        seeds = []

        def recording(ids, scores, spec, rejected, seed):
            seeds.append(seed)
            raise ConfigError("stop after the seed is known")

        monkeypatch.setattr("driftbench.curate.curate_rows", recording)
        (tmp_path / "emb.tsv").write_text("#m=2\n" + "".join(f"{i}\t1.0,{i}.0\n" for i in range(8)))
        (tmp_path / "q.tsv").write_text("a\t1.0,0.0\n")
        (tmp_path / "cur.cfg").write_text("per_class_top = 2\nbackground_low = 2\nfinal_per_class = 1\n")
        assert main(["curate", "--embeddings", str(tmp_path / "emb.tsv"), "--queries",
                     str(tmp_path / "q.tsv"), "--spec", str(tmp_path / "cur.cfg"),
                     "--out", str(tmp_path / "curated")]) == 2
        curate_parsed = {"seed": seeds[0]}

        def as_value(text):
            if text in ("true", "false"):
                return text == "true"
            for kind in (int, float):
                try:
                    return kind(text)
                except ValueError:
                    pass
            return text

        checked = 0
        for command, values in (("run", parsed), ("curate", curate_parsed)):
            for line in help_text[command].splitlines():
                match = re.fullmatch(r"  (\w+) +.*\(default (.+)\)", line)
                if match is None:
                    continue
                key, default = match.groups()
                checked += 1
                if key == "lr":  # "1.0 linear, 0.1 mlp": one default per architecture
                    for part in default.split(", "):
                        value, arch = part.split(" ")
                        assert cells[arch].hyperparams.learning_rate == float(value), part
                elif key == "alpha":
                    assert values[key] == parse_policy(default)
                else:
                    assert values[key] == as_value(default), key
        assert checked == len(parsed) + len(curate_parsed) + 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_weight_decay_rejected(self, tmp_path, value):
        text = GOOD_CONFIG + f"weight_decay = {value}\n"
        with pytest.raises(ConfigError, match=r"line 22: key 'weight_decay' must be finite"):
            validate_config(text, tmp_path)

    @pytest.mark.parametrize(
        "old, new, expected",
        [
            ("classes = 3", "classes = 0", "line 3: key 'classes' must be >= 1"),
            ("per_class = 30", "per_class = 0", "line 6: key 'per_class' must be >= 1"),
            ("lr = 0.5", "momentum = 1.5", r"line 18: key 'momentum' must be in \[0, 1\)"),
            ("decay_epoch = 2", "decay_epoch = 4", "line 21: key 'decay_epoch' must be <= epochs"),
            ("stream_seed = 7", "stream_seed = -1", "line 9: key 'stream_seed' must be >= 0"),
            ("base_seed = 0", "base_seed = -1", "line 17: base_seed must be >= 0"),
        ],
    )
    def test_range_error_names_key_line(self, tmp_path, old, new, expected):
        with pytest.raises(ConfigError, match=f"^{expected}$"):
            validate_config(GOOD_CONFIG.replace(old, new), tmp_path)

    def test_gdumb_like_rejected(self, tmp_path):
        text = GOOD_CONFIG.replace("strategy = finetuning", "strategy = gdumb_like")
        with pytest.raises(ConfigError, match=r"line 13: unknown strategy 'gdumb_like'"):
            validate_config(text, tmp_path)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            validate_config(GOOD_CONFIG + "epochs = 9\n", tmp_path)

    def test_duplicate_cell_names(self, tmp_path):
        text = GOOD_CONFIG + "\n" + GOOD_CONFIG.split("[cell:ft-fast]")[1].join(
            ["[cell:ft-fast]", ""]
        )
        with pytest.raises(ConfigError, match="unique"):
            validate_config(text, tmp_path)

    def test_key_outside_any_section_reported_with_the_rest(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config("epochs = 3\n" + GOOD_CONFIG.replace("alpha", "aplha"), tmp_path)
        assert str(err.value).splitlines() == [
            "line 1: key 'epochs' outside any section",
            "line 15: unknown key 'aplha' (did you mean 'alpha'?)",
        ]

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            validate_config(GOOD_CONFIG + "[plotting]\nstyle = dark\n", tmp_path)

    def test_file_stream_keys(self, tmp_path):
        text = (
            "[stream]\nsource = file\npath = feats.tsv\nbuckets = 2\nnormalize = true\n"
            + GOOD_CONFIG.split("[cell:ft-fast]")[1].join(["[cell:ft-fast]", ""])
        )
        grid = validate_config(text, tmp_path)
        assert grid.stream.path == "feats.tsv"
        assert grid.stream.normalize is True

    def test_source_key_mismatch(self, tmp_path):
        bad = GOOD_CONFIG.replace("stream_seed = 7", "stream_seed = 7\npath = x.tsv")
        with pytest.raises(ConfigError, match="not valid for source=synthetic"):
            validate_config(bad, tmp_path)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks
        for block in blocks:
            assert validate_config(block, tmp_path).cells


def test_readme_module_table_names_exist():
    # Every backticked identifier in a row of README's module table is an attribute of that row's module.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(driftbench\.\w+)` \|(.*)$", readme, flags=re.MULTILINE)
    assert len(rows) >= 7
    missing = [f"{module}.{name}" for module, rest in rows
               for name in re.findall(r"`([^`]+)`", rest)
               if name.isidentifier() and not hasattr(importlib.import_module(module), name)]
    assert missing == []


class TestLoadStream:
    def test_synthetic(self, tmp_path):
        grid = validate_config(GOOD_CONFIG, tmp_path)
        stream = load_stream(grid.stream)
        assert stream.n_buckets == 3 and stream.d == 4 and stream.C == 3

    def test_from_file_uses_header_class_count(self, tmp_path):
        cfg = DriftConfig(C=2, d=3, N=2, n_per_class=10, radius=1.0, drift_rate=0.0, noise=0.2, seed=1)
        path = tmp_path / "feats.tsv"
        write_drift_file(path, cfg, C=5)
        text = GOOD_CONFIG.replace(
            "source = synthetic\nclasses = 3\ndim = 4\nbuckets = 3\nper_class = 30\n"
            "noise = 0.3\ndrift_rate = 0.2\nstream_seed = 7",
            f"source = file\npath = {path}\nbuckets = 2",
        )
        grid = validate_config(text, tmp_path)
        stream = load_stream(grid.stream)
        assert stream.C == 5 and stream.n_buckets == 2


class TestRunExperiment:
    def test_single_cell_outputs(self, tmp_path):
        grid = validate_config(GOOD_CONFIG, tmp_path / "out")
        result = run_experiment(grid)
        assert result.ok
        cell_dir = tmp_path / "out" / "ft-fast"
        assert (cell_dir / "matrix_seed0.txt").exists()
        assert (cell_dir / "events_seed0.log").exists()
        assert (cell_dir / "report.txt").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        matrix = matrix_from_text((cell_dir / "matrix_seed0.txt").read_text())
        assert matrix.n == 3 and matrix.protocol is ProtocolKind.STREAMING
        protocol, events = parse_event_log((cell_dir / "events_seed0.log").read_text())
        assert protocol is ProtocolKind.STREAMING and events
        audit_streaming_order(events)

    def test_summary_row_count(self, tmp_path):
        extra = GOOD_CONFIG + (
            "\n[cell:iid-fast]\nprotocol = iid\nstrategy = from_scratch\n"
            "alpha = fixed:1.0\nbuffer_capacity = 63\ntrain_fraction = 0.7\n"
            "n_seeds = 1\nlr = 0.5\nbatch = 32\nepochs = 3\ndecay_epoch = 2\n"
        )
        grid = validate_config(extra, tmp_path / "out")
        result = run_experiment(grid)
        assert result.ok
        rows = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        # header + 2 streaming metrics + 5 iid metrics
        assert len(rows) == 1 + 2 + 5

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            grid = validate_config(GOOD_CONFIG, tmp_path / sub)
            run_experiment(grid)
        for name in ("ft-fast/matrix_seed0.txt", "ft-fast/report.txt", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_cell_isolation(self, tmp_path):
        # The bad cell's train fraction leaves an empty test split at runtime.
        text = GOOD_CONFIG + (
            "\n[cell:bad]\nprotocol = iid\nstrategy = finetuning\nalpha = fixed:1.0\n"
            "buffer_capacity = 90\ntrain_fraction = 0.999\nn_seeds = 1\n"
            "lr = 0.5\nbatch = 32\nepochs = 3\ndecay_epoch = 2\n"
        )
        grid = validate_config(text, tmp_path / "out")
        result = run_experiment(grid)
        assert not result.ok
        assert set(result.failures) == {"bad"}
        assert (tmp_path / "out" / "bad" / "error.txt").exists()
        assert (tmp_path / "out" / "ft-fast" / "report.txt").exists()
        rows = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert all(not r.startswith("bad,") for r in rows)

    def test_interrupted_write_keeps_previous_artifact(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_experiment(validate_config(GOOD_CONFIG, out))
        before = (out / "summary.csv").read_bytes()
        real_write = runner_module._write_artifact

        def interrupted(path, chunks):
            if Path(path).name == "summary.csv":
                raise OSError("interrupted")
            real_write(path, chunks)

        monkeypatch.setattr(runner_module, "_write_artifact", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            run_experiment(validate_config(GOOD_CONFIG.replace("lr = 0.5", "lr = 0.1"), out))
        assert (out / "summary.csv").read_bytes() == before
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_cell_fails_loudly(self, tmp_path):
        text = GOOD_CONFIG + DIVERGED_CELL
        grid = validate_config(text, tmp_path / "out")
        result = run_experiment(grid)
        assert set(result.failures) == {"diverged"}
        assert "diverged" in (tmp_path / "out" / "diverged" / "error.txt").read_text()
        assert not (tmp_path / "out" / "diverged" / "report.txt").exists()
        assert (tmp_path / "out" / "ft-fast" / "report.txt").exists()

    def test_a_cell_run_on_a_non_finite_stream_fails_alone(self, tmp_path, monkeypatch):
        # Synthetic and file streams are finite, so the NaN, in the stream's
        # last row, is given to the streaming cell's runs alone.
        real = runner_module.run_streaming_protocol

        def with_nan(stream, cfg, seed):
            x = stream.x.copy()
            x[-1, 0] = np.nan
            return real(dataclasses.replace(stream, x=x), cfg, seed)

        monkeypatch.setattr(runner_module, "run_streaming_protocol", with_nan)
        iid_cell = GOOD_CONFIG.split("[cell:ft-fast]")[1].replace("protocol = streaming", "protocol = iid")
        text = GOOD_CONFIG + "\n[cell:iid]" + iid_cell + "train_fraction = 0.7\n"
        result = run_experiment(validate_config(text, tmp_path / "out"))
        assert result.failures == {"ft-fast": "ValueError: non-finite feature value in the stream"}
        assert sorted(p.name for p in (tmp_path / "out" / "ft-fast").iterdir()) == ["error.txt"]
        assert (tmp_path / "out" / "iid" / "report.txt").exists()

    def test_mlp_cell_uses_mlp_default_lr(self, tmp_path):
        text = GOOD_CONFIG.replace("lr = 0.5\n", "").replace(
            "strategy = finetuning", "strategy = finetuning\narchitecture = mlp:16"
        )
        grid = validate_config(text, tmp_path / "out")
        assert grid.cells[0].hyperparams.learning_rate == 0.1
        result = run_experiment(grid)
        assert result.ok

    def test_file_stream_end_to_end(self, tmp_path):
        cfg = DriftConfig(C=3, d=4, N=3, n_per_class=30, radius=1.0,
                          drift_rate=0.2, noise=0.3, seed=7)
        path = tmp_path / "feats.tsv"
        write_drift_file(path, cfg, C=3)
        text = GOOD_CONFIG.replace(
            "source = synthetic\nclasses = 3\ndim = 4\nbuckets = 3\nper_class = 30\n"
            "noise = 0.3\ndrift_rate = 0.2\nstream_seed = 7",
            f"source = file\npath = {path}\nbuckets = 3",
        )
        grid = validate_config(text, tmp_path / "out")
        result = run_experiment(grid)
        assert result.ok
        matrix = matrix_from_text(
            (tmp_path / "out" / "ft-fast" / "matrix_seed0.txt").read_text()
        )
        assert matrix.n == 3

    def test_stream_manifest_written(self, tmp_path):
        grid = validate_config(GOOD_CONFIG, tmp_path / "out")
        run_experiment(grid)
        manifest = (tmp_path / "out" / "stream_manifest.tsv").read_text().strip().splitlines()
        assert len(manifest) == 3
        assert manifest[0].split("\t")[3] == "90"

    def test_alpha_sweep_grid_direction(self, tmp_path):
        # Four-cell alpha sweep on a drifting stream: higher alpha wins next-domain.
        cells = "".join(
            f"\n[cell:a{str(v).replace('.', '')}]\nprotocol = streaming\n"
            f"strategy = finetuning\nalpha = fixed:{v}\nbuffer_capacity = 120\n"
            "n_seeds = 2\nlr = 0.5\nbatch = 32\nepochs = 6\ndecay_epoch = 4\n"
            for v in (0.5, 1.0, 2.0, 5.0)
        )
        text = (
            "[stream]\nsource = synthetic\nclasses = 3\ndim = 4\nbuckets = 6\n"
            "per_class = 40\nnoise = 0.3\ndrift_rate = 0.26\nstream_seed = 7\n" + cells
        )
        grid = validate_config(text, tmp_path / "out")
        result = run_experiment(grid)
        assert result.ok and len(grid.cells) == 4
        next_domain = {
            name: agg.means["next_domain"] for name, agg in result.reports.items()
        }
        assert next_domain["a50"] > next_domain["a05"]

    def test_paper_grid_minibatch_step_count(self, tmp_path, monkeypatch):
        # Per seed: iid trains 10 + 9 x 13 batches of 256 per epoch (a 2,310-row
        # train split, then a full 3,300-row buffer); streaming trains 13 at
        # each of its 9 scored steps and none for the last bucket.  20 epochs.
        # The count is shared, so it sees the steps of every process the run
        # forks; with BLAS pinned to one thread, as in the bench, it forks.
        steps = multiprocessing.Value("q", 0)
        real = learner_module._loss_grad_arrays

        def counting(*args, **kwargs):
            with steps.get_lock():
                steps.value += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(learner_module, "_loss_grad_arrays", counting)
        result = run_experiment(validate_config(PAPER_GRID_CONFIG, tmp_path / "out"))
        assert result.ok
        assert steps.value == 2 * 20 * ((10 + 9 * 13) + 9 * 13) == 9_760

    def test_long_stream_scores_with_one_forward_pass_per_chunk(self, tmp_path, monkeypatch):
        # Step i of a seed scores the rows of buckets i + 1 to N - 1 in chunks
        # of at most SCORE_BATCH_ROWS, one forward pass each, and no chunk goes
        # through predict_batch's checks again; each fit runs one forward pass
        # per minibatch.  One process, so plain counters see every call.
        calls = dict.fromkeys(["predict_batch", "score", "fit", "minibatch"], 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module in (learner_module, protocol_module):
            monkeypatch.setattr(module, "predict_batch", counting("predict_batch", module.predict_batch))
        monkeypatch.setattr(protocol_module, "_forward", counting("score", protocol_module._forward))
        monkeypatch.setattr(learner_module, "_forward", counting("fit", learner_module._forward))
        monkeypatch.setattr(learner_module, "_loss_grad_arrays",
                            counting("minibatch", learner_module._loss_grad_arrays))
        use_processes(monkeypatch, 1)
        grid = validate_config(LONG_STREAM_CONFIG, tmp_path / "out")
        assert run_experiment(grid).ok
        offsets = load_stream(grid.stream).offsets
        chunks = sum(-(-rows // protocol_module.SCORE_BATCH_ROWS) for rows in (offsets[-1] - offsets[1:-1]).tolist())
        seeds, n = grid.cells[0].n_seeds, len(offsets) - 1
        assert calls["predict_batch"] == 0
        assert calls["score"] == seeds * chunks
        # The buffer holds 64 rows at most, one minibatch of 256: one per fit.
        assert calls["fit"] == calls["minibatch"] == seeds * (n - 1)

    def test_long_stream_builds_no_events(self, tmp_path, monkeypatch):
        # The runner writes each event log from the protocol and N; building
        # one Event per action would be 2 x (400 train + 79,800 evaluate) =
        # 160,400 objects here.  The count is shared by both processes, one per seed.
        built = multiprocessing.Value("q", 0)
        real = Event.__init__

        def counting(self, *args, **kwargs):
            with built.get_lock():
                built.value += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting)
        use_processes(monkeypatch, 2)
        result = run_experiment(validate_config(LONG_STREAM_CONFIG, tmp_path / "out"))
        assert result.ok
        assert (tmp_path / "out" / "streaming-finetuning-fifo" / "events_seed1.log").exists()
        assert built.value == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("failing_seed", [None, 0, 1])
    def test_failures_write_the_same_files_in_one_process_and_two(self, tmp_path, monkeypatch, failing_seed):
        # None: the diverged grid.  0 or 1: that seed of ft-fast fails; with
        # two processes seed 0 runs here and seed 1 in the forked worker, so
        # a failing seed 0 has seed 1's files written and then removed.
        text = GOOD_CONFIG + DIVERGED_CELL
        if failing_seed is not None:
            text = TWO_SEED_CONFIG
            real_step = protocol_module.strategy_step

            def failing_step(strategy, prev, i, x, y, hp, arch, rows):
                if hp.seed - LEARNER_SEED_OFFSET - i == failing_seed:
                    raise FloatingPointError("training diverged")
                return real_step(strategy, prev, i, x, y, hp, arch, rows)

            monkeypatch.setattr(protocol_module, "strategy_step", failing_step)
        trees, failures = {}, {}
        for processes in (1, 2):
            use_processes(monkeypatch, processes)
            result = run_experiment(validate_config(text, tmp_path / str(processes)))
            trees[processes], failures[processes] = tree(tmp_path / str(processes)), result.failures
        assert set(failures[1]) == {"diverged" if failing_seed is None else "ft-fast"}
        assert failures[2] == failures[1]
        assert trees[2] == trees[1]
        if failing_seed is not None:  # only the seeds before the failing one keep their files
            kept = [name for name in trees[1] if name.startswith("ft-fast/matrix")]
            assert kept == [f"ft-fast/matrix_seed{seed}.txt" for seed in range(failing_seed)]
            assert "other/report.txt" in trees[1]

    def test_killed_worker_fails_its_cell_and_the_others_finish(self, tmp_path, monkeypatch):
        # Units: ft-fast seeds 0 and 1, then other at seed 5.  This process
        # runs the first and the last; the worker runs seed 1 and kills itself.
        caller, real = os.getpid(), runner_module._run_unit

        def dying(stream, cell, cell_dir, seed):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(stream, cell, cell_dir, seed)

        def hung(signum, frame):
            raise TimeoutError("the run waited on its killed worker")

        monkeypatch.setattr(runner_module, "_run_unit", dying)
        use_processes(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            result = run_experiment(validate_config(TWO_SEED_CONFIG, tmp_path / "out"))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert set(result.failures) == {"ft-fast"}
        error = (tmp_path / "out" / "ft-fast" / "error.txt").read_text()
        assert f"killed by signal {int(signal.SIGKILL)}" in error, error
        assert (tmp_path / "out" / "ft-fast" / "matrix_seed0.txt").exists()
        assert not (tmp_path / "out" / "ft-fast" / "report.txt").exists()
        assert (tmp_path / "out" / "other" / "report.txt").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("death", ["exit", "cut", "short"])
    def test_a_dead_worker_fails_only_the_units_it_did_not_record(self, tmp_path, monkeypatch, death):
        # Units: ft-fast seeds 0 and 1, then other seeds 5 and 6.  The worker
        # runs units 1 and 3: it records ft-fast seed 1, then lets SystemExit
        # escape other seed 6 ("exit"), or writes half of that seed's record
        # and kills itself ("cut") or returns the short count ("short").
        if death == "exit":
            real = runner_module._run_unit

            def exiting(stream, cell, cell_dir, seed):
                if seed == 6:
                    raise SystemExit("the worker exits")
                return real(stream, cell, cell_dir, seed)

            monkeypatch.setattr(runner_module, "_run_unit", exiting)
            why = "exited with status 1"
        else:
            caller, real_write = os.getpid(), os.write

            def cutting(fd, data):
                if os.getpid() != caller and pickle.loads(data)[0] == 3:
                    written = real_write(fd, data[: len(data) // 2])
                    if death == "cut":
                        os.kill(os.getpid(), signal.SIGKILL)
                    return written
                return real_write(fd, data)

            monkeypatch.setattr(os, "write", cutting)
            why = f"was killed by signal {int(signal.SIGKILL)}" if death == "cut" else "exited with status 1"

        def hung(signum, frame):
            raise TimeoutError("the run waited on its dead worker")

        use_processes(monkeypatch, 2)
        text = TWO_SEED_CONFIG.replace("n_seeds = 1\nbase_seed = 5", "n_seeds = 2\nbase_seed = 5")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            result = run_experiment(validate_config(text, tmp_path / "out"))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert set(result.failures) == {"other"}
        assert (tmp_path / "out" / "ft-fast" / "report.txt").exists()
        error = (tmp_path / "out" / "other" / "error.txt").read_text()
        assert error == f"ChildProcessError: the worker process running this seed {why}\n"
        assert set(os.listdir(tmp_path / "out" / "other")) == {"error.txt", "events_seed5.log", "matrix_seed5.txt"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_rerun_replaces_the_other_outcome_file(self, tmp_path):
        # One --out: the diverged cell fails, then runs at a sane rate, then fails again.
        sane = DIVERGED_CELL.replace("lr = 1e300", "lr = 0.1")
        expected = {"error.txt"}, {"report.txt", "matrix_seed0.txt", "events_seed0.log"}, {"error.txt"}
        for cell, files in zip([DIVERGED_CELL, sane, DIVERGED_CELL], expected):
            run_experiment(validate_config(GOOD_CONFIG + cell, tmp_path / "out"))
            assert set(os.listdir(tmp_path / "out" / "diverged")) == files

    @pytest.mark.parametrize("failing_seed", [0, 1])
    def test_a_failing_rerun_keeps_only_the_seeds_before_the_failure(self, tmp_path, monkeypatch, failing_seed):
        # A clean run, then a rerun into the same --out in which one seed of ft-fast fails.
        trees = {}
        for processes in (1, 2):
            use_processes(monkeypatch, processes)
            out = tmp_path / str(processes)
            assert run_experiment(validate_config(TWO_SEED_CONFIG, out)).ok
            with monkeypatch.context() as mp:
                fail_seed(mp, failing_seed)
                assert set(run_experiment(validate_config(TWO_SEED_CONFIG, out)).failures) == {"ft-fast"}
            trees[processes] = tree(out)
        assert trees[2] == trees[1]
        kept = {f"ft-fast/{name}_seed{seed}.{ext}" for seed in range(failing_seed)
                for name, ext in [("matrix", "txt"), ("events", "log")]}
        assert {name for name in trees[1] if name.startswith("ft-fast/")} == {"ft-fast/error.txt", *kept}

    @pytest.mark.parametrize("env, expected", [
        ({}, (1, 1)),
        ({"OPENBLAS_NUM_THREADS": "1"}, (3, 4)),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, (3, 4)),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, (1, 1)),
        ({"MKL_NUM_THREADS": "4"}, (1, 1)),
    ])
    def test_processes_only_with_blas_pinned_to_one_thread(self, monkeypatch, env, expected):
        # (3 units, 8 units) on 4 usable CPUs: one process per unit, at most one per CPU.
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert (runner_module._process_count(3), runner_module._process_count(8)) == expected


class TestReusedOut:
    def test_a_reused_out_ends_as_a_fresh_runs_tree(self, tmp_path, monkeypatch):
        # TWO_SEED_CONFIG writes ft-fast seed 1 and the other cell; GOOD_CONFIG has neither.
        trees = {}
        for processes in (1, 2):
            use_processes(monkeypatch, processes)
            out = tmp_path / str(processes)
            assert run_experiment(validate_config(TWO_SEED_CONFIG, out)).ok
            assert run_experiment(validate_config(GOOD_CONFIG, out)).ok
            trees[processes] = tree(out)
        assert run_experiment(validate_config(GOOD_CONFIG, tmp_path / "fresh")).ok
        assert trees[1] == trees[2] == tree(tmp_path / "fresh")
        assert sorted(os.listdir(tmp_path)) == ["1", "2", "fresh"]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_an_interrupted_rerun_leaves_the_old_tree(self, tmp_path, monkeypatch, processes):
        # This process's second unit raises; with two processes the worker has run seed 1 by then, or is killed.
        use_processes(monkeypatch, processes)
        out = tmp_path / "out"
        assert run_experiment(validate_config(TWO_SEED_CONFIG, out)).ok
        before = tree(out)
        caller, calls, real = os.getpid(), [], runner_module._run_unit

        def interrupted(stream, cell, cell_dir, seed):
            if os.getpid() == caller:
                calls.append(seed)
                if len(calls) == 2:
                    raise KeyboardInterrupt
            return real(stream, cell, cell_dir, seed)

        monkeypatch.setattr(runner_module, "_run_unit", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(validate_config(TWO_SEED_CONFIG.replace("lr = 0.5", "lr = 0.1"), out))
        assert tree(out) == before
        assert os.listdir(tmp_path) == ["out"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_killed_mid_write_leaves_a_tree_a_rerun_replaces(self, tmp_path, monkeypatch):
        # The worker runs ft-fast seed 1 and is killed once the first chunk of its matrix is taken.
        use_processes(monkeypatch, 2)
        out = tmp_path / "out"
        caller, real = os.getpid(), runner_module._write_artifact

        def first_chunk_then_die(chunks):
            yield next(chunks)
            os.kill(os.getpid(), signal.SIGKILL)

        def killed(path, chunks):
            if os.getpid() != caller and path.name.startswith("matrix"):
                chunks = first_chunk_then_die(iter(chunks))
            real(path, chunks)

        def hung(signum, frame):
            raise TimeoutError("the run waited on its killed worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with monkeypatch.context() as mp:
                mp.setattr(runner_module, "_write_artifact", killed)
                assert set(run_experiment(validate_config(TWO_SEED_CONFIG, out)).failures) == {"ft-fast"}
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert f"killed by signal {int(signal.SIGKILL)}" in (out / "ft-fast" / "error.txt").read_text()
        assert sorted(os.listdir(out / "ft-fast")) == ["error.txt", "events_seed0.log", "matrix_seed0.txt"]
        assert run_experiment(validate_config(TWO_SEED_CONFIG, out)).ok
        assert os.listdir(tmp_path) == ["out"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("foreign, named", [
        ("notes.txt", "notes.txt"),
        ("ft-fast/plot.png", "ft-fast/plot.png"),
        ("ft-fast/old/matrix_seed0.txt", "ft-fast/old"),
    ])
    def test_a_foreign_path_is_refused_before_the_stream_loads(self, tmp_path, monkeypatch, capsys, foreign, named):
        out = tmp_path / "out"
        assert run_experiment(validate_config(GOOD_CONFIG, out)).ok
        (out / foreign).parent.mkdir(exist_ok=True)
        (out / foreign).write_text("not a run's\n")
        before = tree(out)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GOOD_CONFIG)

        def no_load(spec):
            raise AssertionError("the stream was loaded before the output directory was checked")

        monkeypatch.setattr(runner_module, "load_stream", no_load)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"driftbench: error: {out / named}: not written by a driftbench run" in capsys.readouterr().err
        assert tree(out) == before
        assert sorted(os.listdir(tmp_path)) == ["grid.cfg", "out"]


def write_curation(root, seed):
    """A curation of 120 embeddings into ``root / "curated"``: 5 records in each of 3 classes; the CLI args."""
    vectors = np.random.default_rng(0).standard_normal((120, 4))
    with open(root / "emb.tsv", "w") as fh:
        fh.write("#m=4\n")
        for i, v in enumerate(vectors):
            fh.write(f"{i}\t" + ",".join(str(x) for x in v) + "\n")
    (root / "q.tsv").write_text("first\t1.0,0.0,0.0,0.0\nsecond\t0.0,1.0,0.0,0.0\n")
    (root / "cur.cfg").write_text(f"per_class_top = 10\nbackground_low = 20\nfinal_per_class = 5\nseed = {seed}\n")
    return ["curate", "--embeddings", str(root / "emb.tsv"), "--queries", str(root / "q.tsv"),
            "--spec", str(root / "cur.cfg"), "--out", str(root / "curated")]


class TestForkedWriter:
    @pytest.mark.parametrize("death", ["exit", "kill"])
    def test_a_dead_writer_worker_keeps_the_previous_file(self, tmp_path, monkeypatch, capsys, death):
        assert main(write_curation(tmp_path, seed=3)) == 0
        features = tmp_path / "curated" / "features.tsv"
        before = features.read_bytes()
        real = corpus_module._fork_shares

        def dying(processes, share):
            def share_then_die(first, file):
                share(first, file)
                if file is not None:
                    if death == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise RuntimeError("the worker fails")

            return real(processes, share_then_die)

        monkeypatch.setattr(corpus_module, "FORK_MIN_VALUES", 1)
        monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, 2))
        monkeypatch.setattr(corpus_module, "_fork_shares", dying)
        capsys.readouterr()
        assert main(write_curation(tmp_path, seed=4)) == 2
        why = f"was killed by signal {int(signal.SIGKILL)}" if death == "kill" else "exited with status 1"
        assert f"a worker process writing {features} {why}" in capsys.readouterr().err
        assert features.read_bytes() == before
        assert sorted(os.listdir(tmp_path / "curated")) == ["classes.txt", "features.tsv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCli:
    def test_run_and_metrics(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "cell ft-fast: ok" in out
        matrix_path = tmp_path / "out" / "ft-fast" / "matrix_seed0.txt"
        assert main(["metrics", "--matrix", str(matrix_path)]) == 0
        out = capsys.readouterr().out
        assert "next_domain=" in out and "in_domain=" not in out

    @pytest.mark.parametrize("config", ["grid.cfg", "missing.cfg"])
    def test_every_command_hands_its_freed_heap_back(self, tmp_path, monkeypatch, config):
        # A process that runs curate then run must not start the run on the heap curate freed.
        trims = []

        class Libc:
            def malloc_trim(self, pad):
                trims.append(pad)

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        (tmp_path / "grid.cfg").write_text(GOOD_CONFIG)
        code = main(["run", "--config", str(tmp_path / config), "--out", str(tmp_path / "out")])
        assert (code, trims) == (0 if config == "grid.cfg" else 2, [0])

    def test_a_libc_without_malloc_trim_is_left_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert main(["run", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("kind", ["config", "spec", "queries", "rejections"])
    def test_a_byte_that_is_not_utf8_is_named_by_its_file_and_line(self, tmp_path, capsys, kind, end):
        # Line 2 of one text input holds 0xff; its lines end in ``end``, which a text-mode file splits at.
        args = write_curation(tmp_path, seed=3)
        (tmp_path / "reject.txt").write_text("3\n17\n")
        with open(tmp_path / "cur.cfg", "a") as fh:
            fh.write(f"reject_file = {tmp_path / 'reject.txt'}\n")
        (tmp_path / "grid.cfg").write_text(GOOD_CONFIG)
        if kind == "config":
            args = ["run", "--config", str(tmp_path / "grid.cfg"), "--out", str(tmp_path / "out")]
        path = tmp_path / {"config": "grid.cfg", "spec": "cur.cfg", "queries": "q.tsv", "rejections": "reject.txt"}[kind]
        lines = path.read_bytes().splitlines()
        lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
        path.write_bytes(end.encode().join(lines))
        assert main(args) == 2
        why = "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"
        assert capsys.readouterr().err == f"driftbench: error: {path}:2: {why}\n"

    def test_run_reports_config_errors(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GOOD_CONFIG.replace("alpha", "aplha"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_curate_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((120, 4))
        emb = tmp_path / "emb.tsv"
        with open(emb, "w") as fh:
            fh.write("#m=4\n")
            for i, v in enumerate(vecs):
                fh.write(f"{i}\t" + ",".join(str(x) for x in v) + "\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("first\t1.0,0.0,0.0,0.0\nsecond\t0.0,1.0,0.0,0.0\n")
        spec = tmp_path / "cur.cfg"
        spec.write_text("per_class_top = 10\nbackground_low = 20\nfinal_per_class = 5\nseed = 3\n")
        out = tmp_path / "curated"
        code = main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(out),
        ])
        assert code == 0
        classes = (out / "classes.txt").read_text().strip().splitlines()
        assert classes == ["0\tfirst", "1\tsecond", "2\tbackground"]
        from driftbench.corpus import load_feature_file

        samples = load_feature_file(out / "features.tsv")
        assert len(samples) == 15
        labels = [s.label for s in samples]
        assert all(labels.count(k) == 5 for k in (0, 1, 2))

    def test_curate_rejection_list(self, tmp_path):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((80, 3))
        emb = tmp_path / "emb.tsv"
        with open(emb, "w") as fh:
            fh.write("#m=3\n")
            for i, v in enumerate(vecs):
                fh.write(f"{i}\t" + ",".join(str(x) for x in v) + "\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("solo\t1.0,0.0,0.0\n")
        reject = tmp_path / "reject.txt"
        reject.write_text("\n".join(str(i) for i in range(80)) + "\n")
        spec = tmp_path / "cur.cfg"
        spec.write_text(
            "per_class_top = 8\nbackground_low = 8\nfinal_per_class = 4\n"
            f"reject_file = {reject}\n"
        )
        # Rejecting every id leaves nothing to finalize: the CLI must fail cleanly.
        code = main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        reject.write_text("0\n1\n")
        code = main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 0
        from driftbench.corpus import load_feature_file

        samples = load_feature_file(tmp_path / "curated" / "features.tsv")
        assert not any(s.id in (0, 1) for s in samples)

    def test_run_rejects_file_integers_beyond_int64(self, tmp_path, capsys):
        # Unchecked, such an id gives an object-dtype id vector and the run goes on.
        path = tmp_path / "feats.tsv"
        path.write_text(f"#d=2 C=1\n0\t0\t0\t1.0,2.0\n{2**70}\t1\t0\t2.0,1.0\n")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"[stream]\nsource = file\npath = {path}\nbuckets = 2\n"
                       "[cell:c]\nprotocol = streaming\nstrategy = finetuning\nalpha = fixed:1.0\n"
                       "buffer_capacity = 2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"feats.tsv:3: integer {2**70} outside the int64 range" in err
        assert "Traceback" not in err

    def test_run_names_a_repeated_feature_id_by_its_line(self, tmp_path, capsys):
        # The reader names it; bucketize, left to catch it, would name no file and no line.
        path = tmp_path / "f.tsv"
        path.write_text("#d=2 C=1\n0\t0\t0\t1.0,2.0\n1\t1\t0\t2.0,1.0\n0\t2\t0\t1.0,1.0\n3\t3\t0\t0.5,1.0\n")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"[stream]\nsource = file\npath = {path}\nbuckets = 2\n"
                       "[cell:c]\nprotocol = streaming\nstrategy = finetuning\nalpha = fixed:1.0\n"
                       "buffer_capacity = 2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"driftbench: error: {path}:4: duplicate id 0\n"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_metrics_names_a_byte_that_is_not_utf8_by_its_line(self, tmp_path, capsys, end):
        path = tmp_path / "m.txt"
        path.write_bytes(end.join(["N=2 protocol=iid", "0.5,0.5", "0.5,\xff0.5", ""]).encode("latin-1"))
        assert main(["metrics", "--matrix", str(path)]) == 2
        why = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"
        assert capsys.readouterr().err == f"driftbench: error: {path}:3: {why}\n"

    @pytest.mark.parametrize("cell, why", [("x", "bad cell 'x'"), ("inf", "non-finite cell 'inf'")])
    def test_metrics_names_a_bad_cell_by_file_and_line(self, tmp_path, capsys, cell, why):
        path = tmp_path / "m.txt"
        path.write_text(f"N=2 protocol=iid\n\n0.5,0.5\n0.5,{cell}\n")
        assert main(["metrics", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == f"driftbench: error: {path}: line 4: row 1, column 1: {why}\n"

    def test_metrics_names_a_repeated_header_key_by_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("N=5 N=2 protocol=streaming protocol=iid\n0.5,0.5\n0.5,0.5\n")
        assert main(["metrics", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == f"driftbench: error: {path}: line 1: header key 'N' given twice\n"

    def test_run_names_the_config_file_on_every_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(FILE_CONFIG.replace("buckets = 2", "buckets = 0\nbukets = 2"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"driftbench: error: {cfg}: line 5: unknown key 'bukets' (did you mean 'buckets'?)\n"
                                           f"{cfg}: line 4: key 'buckets' must be >= 1\n")

    def test_run_names_a_feature_file_with_fewer_records_than_buckets(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text("#d=2 C=1\n")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(FILE_CONFIG.replace("path = feats.tsv", f"path = {path}"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"driftbench: error: {path}: need at least 2 samples, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_curate_then_run_build_no_per_row_objects(self, tmp_path, monkeypatch):
        # Per-row objects here would be one EmbeddingRecord per embedding (600)
        # and one Sample per curated row, once written and once read (2 x 120).
        # The counts are shared by the run's two processes, one per cell.
        built = {Sample: multiprocessing.Value("q", 0), EmbeddingRecord: multiprocessing.Value("q", 0)}

        def counting(cls):
            real = cls.__init__

            def init(self, *args, **kwargs):
                with built[cls].get_lock():
                    built[cls].value += 1
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        rng = np.random.default_rng(5)
        emb = tmp_path / "emb.tsv"
        with open(emb, "w") as fh:
            fh.write("#m=8\n")
            for i, v in enumerate(rng.standard_normal((600, 8))):
                fh.write(f"{1000 - i}\t" + ",".join(str(x) for x in v) + "\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("".join(f"q{k}\t" + ",".join(["1.0" if j == k else "0.0" for j in range(8)])
                                   + "\n" for k in range(3)))
        spec = tmp_path / "cur.cfg"
        spec.write_text("per_class_top = 40\nbackground_low = 40\nfinal_per_class = 30\n")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            f"[stream]\nsource = file\npath = {tmp_path / 'curated' / 'features.tsv'}\n"
            "normalize = true\nbuckets = 4\n"
            "[cell:s]\nprotocol = streaming\nstrategy = finetuning\nalpha = fixed:1.0\n"
            "buffer_capacity = 20\n"
            "[cell:i]\nprotocol = iid\nstrategy = napping\nalpha = dynamic:1.0\n"
            "buffer_capacity = 20\ntrain_fraction = 0.7\n"
        )
        use_processes(monkeypatch, 2)
        counting(Sample)
        counting(EmbeddingRecord)
        assert main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "i" / "report.txt").exists()
        assert {cls: count.value for cls, count in built.items()} == {Sample: 0, EmbeddingRecord: 0}

    def test_curate_names_bad_count(self, tmp_path, capsys):
        spec = tmp_path / "cur.cfg"
        spec.write_text("background_low = 2\nper_class_top = ten\nfinal_per_class = 1\n")
        code = main([
            "curate", "--embeddings", str(tmp_path / "emb.tsv"), "--queries",
            str(tmp_path / "q.tsv"), "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{spec}: line 2: key 'per_class_top': expected int, got 'ten'" in err

    @pytest.mark.parametrize("body, expected", [
        ("per_class_top = 10\nbackground_low = 2\nper_class_top = 20\nfinal_per_class = 2\n",
         ["line 3: duplicate key 'per_class_top' (first on line 1)"]),
        ("# counts\nper_clas_top = 10\nseed = x\nbackground_low = 2\n[extra]\n", [
            "line 5: unexpected section [extra]",
            "line 2: unknown key 'per_clas_top' (did you mean 'per_class_top'?)",
            "line 3: key 'seed': expected int, got 'x'",
            "missing required key 'per_class_top'",
            "missing required key 'final_per_class'",
        ]),
        ("per_class_top = 4\nbackground_low = 2\nfinal_per_class = 2\nseed = -1\n",
         ["line 4: key 'seed' must be >= 0"]),
        ("per_class_top = 0\nbackground_low = 2\nfinal_per_class = 2\n",
         ["line 1: key 'per_class_top' must be >= 1"]),
        ("per_class_top = 4\nbackground_low = 0\nfinal_per_class = 2\n",
         ["line 2: key 'background_low' must be >= 1"]),
        ("per_class_top = 1\nbackground_low = 2\nfinal_per_class = 2\n",
         ["line 3: key 'final_per_class' must be <= per_class_top"]),
    ], ids=["duplicate", "together", "seed", "per_class_top", "background_low", "final_per_class"])
    def test_curate_spec_errors_name_file_key_and_line(self, tmp_path, capsys, body, expected):
        # Every spec is rejected before the embedding file, which does not exist, is opened.
        spec = tmp_path / "cur.cfg"
        spec.write_text(body)
        queries = tmp_path / "q.tsv"
        queries.write_text("a\t1.0,0.0\n")
        code = main([
            "curate", "--embeddings", str(tmp_path / "emb.tsv"), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "driftbench: error: " + "\n".join(f"{spec}: {line}" for line in expected) + "\n"

    def test_curate_names_repeated_query_class_by_line(self, tmp_path, capsys):
        queries = tmp_path / "q.tsv"
        queries.write_text("a\t1.0,0.0\nb\t0.0,1.0\n# note\na\t0.6,0.8\n")
        spec = tmp_path / "cur.cfg"
        spec.write_text("per_class_top = 2\nbackground_low = 2\nfinal_per_class = 1\n")
        code = main([
            "curate", "--embeddings", str(tmp_path / "emb.tsv"), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"driftbench: error: {queries}:4: duplicate class name 'a' (first on line 1)\n"

    def test_curate_rejects_the_background_class_name_by_line(self, tmp_path, capsys):
        # Taken as a query class, the name would label a second class 'background'
        # and write the background's ids twice to features.tsv.
        emb = tmp_path / "emb.tsv"
        vecs = np.random.default_rng(3).standard_normal((200, 4)).tolist()
        emb.write_text("#m=4\n" + "".join(f"{i}\t" + ",".join(map(repr, v)) + "\n" for i, v in enumerate(vecs)))
        queries = tmp_path / "q.tsv"
        queries.write_text("# the background class is added last\nbackground\t1.0,0.0,0.0,0.0\ncat\t0.0,1.0,0.0,0.0\n")
        spec = tmp_path / "cur.cfg"
        spec.write_text("per_class_top = 20\nbackground_low = 20\nfinal_per_class = 10\n")
        code = main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"driftbench: error: {queries}:2: class name 'background' is the background class's\n"
        assert not (tmp_path / "curated").exists()

    def test_curate_rejects_negative_ids_by_line(self, tmp_path, capsys):
        # Written out, such ids make a features.tsv that the run's reader rejects.
        emb = tmp_path / "emb.tsv"
        vecs = np.random.default_rng(2).standard_normal((40, 2)).tolist()
        emb.write_text("#m=2\n" + "".join(f"{i - 20}\t{a!r},{b!r}\n" for i, (a, b) in enumerate(vecs)))
        queries = tmp_path / "q.tsv"
        queries.write_text("a\t1.0,0.0\n")
        spec = tmp_path / "cur.cfg"
        spec.write_text("per_class_top = 5\nbackground_low = 5\nfinal_per_class = 5\n")
        code = main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        assert f"{emb}:2: id must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "curated").exists()

    def test_negative_stream_seed_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GOOD_CONFIG.replace("stream_seed = 7", "stream_seed = -1"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "line 9: key 'stream_seed' must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_file_stream_bucket_count_named_by_line(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(FILE_CONFIG.replace("buckets = 2", "buckets = 0"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"driftbench: error: {cfg}: line 4: key 'buckets' must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_curate_names_both_files_on_dimension_mismatch(self, tmp_path, capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("#m=3\n0\t1.0,0.0,0.0\n1\t0.0,1.0,0.0\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("a\t1.0,0.0\n")
        spec = tmp_path / "cur.cfg"
        spec.write_text("per_class_top = 1\nbackground_low = 1\nfinal_per_class = 1\n")
        code = main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{queries}: query dimension 2 != embedding dimension 3 of {emb}" in err
        assert not (tmp_path / "curated").exists()

    def test_curate_reports_dimension_mismatch_before_parsing_records(self, tmp_path, capsys, monkeypatch):
        def parse(*args, **kwargs):
            raise AssertionError("records parsed before the dimension check")

        monkeypatch.setattr(corpus_module, "parse_records", parse)
        emb = tmp_path / "emb.tsv"
        emb.write_text("#m=3\n0\t1.0,0.0,0.0\n")
        queries = tmp_path / "q.tsv"
        queries.write_text("a\t1.0,0.0\n")
        spec = tmp_path / "cur.cfg"
        spec.write_text("per_class_top = 1\nbackground_low = 1\nfinal_per_class = 1\n")
        code = main([
            "curate", "--embeddings", str(emb), "--queries", str(queries),
            "--spec", str(spec), "--out", str(tmp_path / "curated"),
        ])
        assert code == 2
        assert f"{queries}: query dimension 2 != embedding dimension 3 of {emb}" in capsys.readouterr().err

    def test_help_lists_config_keys(self):
        assert "buffer_capacity" in config_reference()
        assert "drift_rate" in config_reference()
