"""Command-line entry point: ``driftbench run | curate | metrics``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import curate as cur
from .corpus import FieldValueError, write_feature_file
from .metrics import METRIC_NAMES, compute_metrics
from .protocol import matrix_from_text
from .runner import (ConfigError, _check_keys, _entry_line, _field_diagnostic, _parse_sections,
                     _Section, config_reference, run_experiment, validate_config)

_CURATE_KEYS: dict[str, tuple[type, str]] = {
    "per_class_top": (int, "head ids retrieved per class"),
    "background_low": (int, "lowest-scoring ids per class feeding the background pool"),
    "final_per_class": (int, "final balanced count per class (background included)"),
    "seed": (int, "subsample seed (default 0)"),
    "reject_file": (str, "optional path with one id per line to drop before finalizing"),
}


def _parse_curation_spec(path: str) -> tuple[_Section, dict[str, Any]]:
    """The spec's keys and typed values, read as a run config's are; errors name the file."""
    try:
        spec, *sections = _parse_sections(Path(path).read_text(encoding="utf-8"))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    diags = [f"line {s.lineno}: unexpected section [{s.name}]" for s in sections]
    values = _check_keys(spec, _CURATE_KEYS, diags)
    for required in ("per_class_top", "background_low", "final_per_class"):
        if required not in spec.entries:
            diags.append(f"missing required key {required!r}")
    if values.get("seed", 0) < 0:
        diags.append(f"{_entry_line(spec, 'seed')}: key 'seed' must be >= 0")
    if diags:
        raise ConfigError("\n".join(f"{path}: {diag}" for diag in diags))
    return spec, values


def _cmd_run(args: argparse.Namespace) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    grid = validate_config(text, args.out)
    result = run_experiment(grid)
    for name in sorted(result.reports):
        print(f"cell {name}: ok")
    for name, message in sorted(result.failures.items()):
        print(f"cell {name}: FAILED ({message})", file=sys.stderr)
    print(f"summary: {grid.out_dir / 'summary.csv'}")
    return 1 if result.failures else 0


def _cmd_curate(args: argparse.Namespace) -> int:
    section, values = _parse_curation_spec(args.spec)
    queries = cur.load_query_file(args.queries)
    try:
        spec = cur.CurationSpec(
            queries=tuple(queries),
            per_class_top=values["per_class_top"],
            background_low_per_class=values["background_low"],
            final_per_class=values["final_per_class"],
        )
    except FieldValueError as exc:
        raise ConfigError(f"{args.spec}: {_field_diagnostic(section, exc)}") from None
    ids, x = cur.load_embedding_file(args.embeddings)
    if queries[0][1].shape != x.shape[1:]:
        raise cur.EmbeddingFileError(
            f"{args.queries}: query dimension {queries[0][1].shape[0]} != "
            f"embedding dimension {x.shape[1]} of {args.embeddings}"
        )
    rankings = {name: cur.rank_rows(ids, x, q) for name, q in spec.queries}
    labeled = cur.select_labeled(rankings, spec)
    background = cur.assemble_background(rankings, spec, labeled)
    del rankings  # two vectors per class as long as the file: not held through the write below
    if "reject_file" in values:
        rejected = cur.load_rejection_list(values["reject_file"])
        labeled = {name: chosen - rejected for name, chosen in labeled.items()}
        background -= rejected
    dataset = cur.finalize_bucket(labeled, background, spec, seed=values.get("seed", 0))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, labels = cur.curated_rows(dataset, ids)
    C = len(dataset.class_names)
    write_feature_file(out / "features.tsv", ids[rows], np.zeros_like(rows), labels, x[rows], C)
    cur.write_class_table(out / "classes.txt", dataset.class_names)
    print(f"wrote {len(rows)} samples across {C} classes to {out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    matrix = matrix_from_text(Path(args.matrix).read_text(encoding="utf-8"))
    report = compute_metrics(matrix)
    print(f"protocol={matrix.protocol.value}")
    print(f"N={matrix.n}")
    for name in METRIC_NAMES:
        value = getattr(report, name)
        if value is not None:
            print(f"{name}={value:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbench",
        description="Continual-learning evaluation harness for drifting streams.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="execute an experiment grid",
        description="Execute every cell of an experiment grid and write matrices, "
        "event logs, reports, and a summary CSV.\n\n" + config_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run.add_argument("--config", required=True, help="grid config file")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_run)

    curate_p = sub.add_parser(
        "curate",
        help="curate a labeled dataset from precomputed embeddings",
        description="Rank embeddings against each query class, resolve cross-class "
        "duplicates, assemble a background class, and write a balanced feature file.\n\n"
        "curation spec keys:\n"
        + "\n".join(f"  {k:<16} {v}" for k, (_, v) in _CURATE_KEYS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    curate_p.add_argument("--embeddings", required=True, help="embedding file (#m=<m> header)")
    curate_p.add_argument("--queries", required=True, help="query file (name<TAB>vector lines)")
    curate_p.add_argument("--spec", required=True, help="curation spec file (key = value lines)")
    curate_p.add_argument("--out", required=True, help="output directory")
    curate_p.set_defaults(func=_cmd_curate)

    metrics_p = sub.add_parser(
        "metrics",
        help="summarize an accuracy-matrix file",
        description="Print the five triangle metrics of a stored accuracy matrix.",
    )
    metrics_p.add_argument("--matrix", required=True, help="matrix file written by 'run'")
    metrics_p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"driftbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
