"""Command-line entry point: ``driftbench run | curate | metrics``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import curate as cur
from .corpus import read_text, write_feature_file
from .metrics import METRIC_NAMES, compute_metrics
from .protocol import matrix_from_text
from .runner import (ConfigError, config_reference, curation_reference, run_experiment,
                     validate_config)
from .runner import read_curation_spec as _parse_curation_spec  # the name bench/child.py calls


def _cmd_run(args: argparse.Namespace) -> int:
    grid = validate_config(read_text(args.config, ConfigError), args.out)
    result = run_experiment(grid)
    for name in sorted(result.reports):
        print(f"cell {name}: ok")
    for name, message in sorted(result.failures.items()):
        print(f"cell {name}: FAILED ({message})", file=sys.stderr)
    print(f"summary: {grid.out_dir / 'summary.csv'}")
    return 1 if result.failures else 0


def _cmd_curate(args: argparse.Namespace) -> int:
    config = _parse_curation_spec(args.spec)
    queries = cur.load_query_file(args.queries)
    spec = config.spec(queries)
    m = cur.embedding_dimension(args.embeddings)  # checked before the records are parsed
    if queries[0][1].shape != (m,):
        raise cur.EmbeddingFileError(
            f"{args.queries}: query dimension {queries[0][1].shape[0]} != "
            f"embedding dimension {m} of {args.embeddings}"
        )
    with open(args.embeddings, "rb") as fh:
        # The file's scores, not its matrix: the selected records are parsed again for the write.
        ids, scores, x = cur.score_embedding_file(fh, spec)
        labeled, background = cur.curate_scores(ids, scores, spec)
        if "reject_file" in config.values:
            rejected = cur.load_rejection_list(config.values["reject_file"])
            labeled = {name: chosen - rejected for name, chosen in labeled.items()}
            background -= rejected
        dataset = cur.finalize_bucket(labeled, background, spec, seed=config.values["seed"])
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rows, labels = cur.curated_rows(dataset, ids)
        C = len(dataset.class_names)
        write_feature_file(out / "features.tsv", ids[rows], np.zeros_like(rows), labels, x, rows, C)
    cur.write_class_table(out / "classes.txt", dataset.class_names)
    print(f"wrote {len(rows)} samples across {C} classes to {out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    matrix = matrix_from_text(read_text(args.matrix, ValueError))
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
        + curation_reference(),
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
