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
    text = read_text(args.config, ConfigError)
    try:
        grid = validate_config(text, args.out)
    except ConfigError as exc:
        raise ConfigError("\n".join(f"{args.config}: {diag}" for diag in str(exc).splitlines())) from None
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
    rejected = np.zeros(0, dtype=np.int64)
    if "reject_file" in config.values:  # read before the records too, so a bad list fails first
        rejected = cur.load_rejection_list(config.values["reject_file"])
    names = (*spec.class_names, cur.BACKGROUND_CLASS)
    with open(args.embeddings, "rb") as fh:
        # The file's scores, not its matrix: the selected records are parsed again for the write.
        ids, scores, x = cur.score_embedding_file(fh, spec)
        rows, labels = cur.curate_rows(ids, scores, spec, rejected, config.values["seed"])
        del scores  # (classes, ids) floats that nothing after the ranking reads
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_feature_file(out / "features.tsv", ids[rows], np.zeros_like(rows), labels, x, rows, len(names))
    cur.write_class_table(out / "classes.txt", names)
    print(f"wrote {len(rows)} samples across {len(names)} classes to {out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    text = read_text(args.matrix, ValueError)
    try:
        matrix = matrix_from_text(text)
    except ValueError as exc:
        raise ValueError(f"{args.matrix}: {exc}") from None
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


def _release_freed_heap() -> None:
    """Hand the heap pages freed so far back to the OS: glibc's ``malloc_trim(0)``; elsewhere nothing.

    glibc keeps freed heap resident, so a process that runs several commands
    (``curate`` then ``run`` through :func:`main`) would start each on top of
    the heap its predecessors freed, and its peak would depend on how that
    heap happened to be laid out.
    """
    import ctypes  # here, since only a finished command needs it

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"driftbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        _release_freed_heap()


if __name__ == "__main__":
    sys.exit(main())
