"""Outside-in span tracer for driftbench and the per-layer metrics derived from it.

The tracer wraps the public functions of every ``driftbench`` module from
outside the package.  Each wrapper is bound at every module attribute that
refers to the function, because callers look functions up through their own
``from .x import y`` bindings: patching only the defining module would miss
``driftbench.protocol.update_buffer`` or ``driftbench.cli.write_feature_file``.

Spans are kept as parallel columns: ``name``, ``start``/``end`` (ns),
``parent`` (index of the enclosing span, -1 at top level) and ``run`` (index of
the top-level span, one per CLI command).  Counts are recorded at the same
boundaries as ``(span, key, value)`` triples, computed after the span has
closed, so their cost lands in the parent's self time.  The columns are
typed arrays, so recording a span allocates no Python objects that would
stay alive and crowd the traced program's memory.  Everything stays in
memory and is written out once, by :meth:`Tracer.dump`, when the traced
process ends.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "driftbench"

# Text serializers are the runner's artifact step; leaving them unwrapped keeps
# their time in runner.self_s, which is meant to be formatting plus writes.
ARTIFACT_FORMATTERS = frozenset(
    {"matrix_to_text", "event_log_text", "report_text", "csv_rows", "stream_manifest"}
)

PROTOCOL_RUNS = ("protocol.run_iid_protocol", "protocol.run_streaming_protocol")

# Candidate percentiles for the tail metrics, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def _count_update_buffer(args, kwargs, result):
    offered = args[1] if len(args) > 1 else kwargs["bucket"]
    offered = offered.samples if hasattr(offered, "samples") else offered
    kept = {s.id for s in result.entries}
    return (("offered", len(offered)), ("retained", sum(1 for s in offered if s.id in kept)))


def _count_train(args, kwargs, result):
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    hp = args[2] if len(args) > 2 else kwargs["hp"]
    return (("sgd_steps", math.ceil(len(dataset) / hp.batch_size) * hp.epochs),)


def _count_predict_batch(args, kwargs, result):
    return (("rows", len(result)),)


def _count_cells(args, kwargs, result):
    return (("cells", int(np.count_nonzero(~np.isnan(result.cells)))),)


def _count_file_bytes(args, kwargs, result):
    return (("bytes", os.path.getsize(args[0] if args else kwargs["path"])),)


# Counts taken at a span's end from the call's arguments and result.
COUNTERS = {
    "sampler.update_buffer": _count_update_buffer,
    "learner.train": _count_train,
    "learner.predict_batch": _count_predict_batch,
    "protocol.run_iid_protocol": _count_cells,
    "protocol.run_streaming_protocol": _count_cells,
    "corpus.load_feature_file": _count_file_bytes,
    "corpus.write_feature_file": _count_file_bytes,
    "curate.load_embedding_file": _count_file_bytes,
}


class Tracer:
    """In-memory span recorder; :meth:`install` wraps the package, :meth:`dump` writes the spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.runs = array("q")
        self.count_span = array("q")
        self.count_key: list[str] = []
        self.count_value = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, starts, ends, parents, runs = (
            self.span_name, self.starts, self.ends, self.parents, self.runs)
        count_span, count_key, count_value = self.count_span, self.count_key, self.count_value
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            span_name.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(runs[stack[-1]] if stack else index)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                try:
                    pairs = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The package's types moved on: keep the span, lose its counts.
                    pairs = ()
                for key, value in pairs:
                    count_span.append(index)
                    count_key.append(key)
                    count_value.append(value)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public driftbench function at each attribute bound to it."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in ARTIFACT_FORMATTERS
                ):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": [self.names[i] for i in self.span_name],
                "starts": self.starts.tolist(), "ends": self.ends.tolist(),
                "parents": self.parents.tolist(), "runs": self.runs.tolist(),
                "counts": list(zip(self.count_span.tolist(), self.count_key, self.count_value.tolist())),
            }, fh, separators=(",", ":"))


def load(path) -> dict[str, list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it (the median if none has)."""
    eligible = [p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10]
    return eligible[-1] if eligible else 50.0


def layer_metrics(trace: dict[str, list]) -> dict[str, float]:
    """Reduce one traced repetition's spans (as loaded by :func:`load`) to the per-layer metrics."""
    names, parents = trace["names"], trace["parents"]
    durations_ns = [end - start for start, end in zip(trace["starts"], trace["ends"])]
    child_ns = [0] * len(names)
    for parent, ns in zip(parents, durations_ns):
        if parent >= 0:
            child_ns[parent] += ns
    keys = ["protocol.run" if name in PROTOCOL_RUNS else name for name in names]
    busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    totals: dict[str, int] = defaultdict(int)
    for key, ns, children in zip(keys, durations_ns, child_ns):
        busy[key] += ns
        self_ns[key] += ns - children
        calls[key] += 1
        durations[key].append(ns)
    for index, count, value in trace["counts"]:
        totals[f"{keys[index]}.{count}"] += value

    def s(key: str) -> float:
        return busy[key] / 1e9

    def mib_per_s(key: str) -> float:
        return totals[f"{key}.bytes"] / 2**20 / s(key) if busy[key] else 0.0

    def p50_and_tail(key: str, scale: float) -> tuple[float, float]:
        values = durations[key]
        if not values:
            return 0.0, 0.0
        p50, tail = np.percentile(values, [50.0, tail_percentile(len(values))]) / scale
        return float(p50), float(tail)

    update_p50, update_tail = p50_and_tail("sampler.update_buffer", 1e3)
    train_p50, train_tail = p50_and_tail("learner.train", 1e6)
    sgd_steps = totals["learner.train.sgd_steps"]
    offered = totals["sampler.update_buffer.offered"]
    return {
        "corpus.generate_drift_stream.s": s("corpus.generate_drift_stream"),
        "corpus.as_arrays.calls": calls["corpus.as_arrays"],
        "corpus.as_arrays.s": s("corpus.as_arrays"),
        "corpus.split_iid.s": s("corpus.split_iid"),
        "corpus.load_feature_file.s": s("corpus.load_feature_file"),
        "corpus.load_feature_file.mib_per_s": mib_per_s("corpus.load_feature_file"),
        "corpus.write_feature_file.s": s("corpus.write_feature_file"),
        "corpus.write_feature_file.mib_per_s": mib_per_s("corpus.write_feature_file"),
        "sampler.update_buffer.calls": calls["sampler.update_buffer"],
        "sampler.update_buffer.s": s("sampler.update_buffer"),
        "sampler.update_buffer.p50_us": update_p50,
        "sampler.update_buffer.tail_us": update_tail,
        "sampler.retained_frac": totals["sampler.update_buffer.retained"] / offered if offered else 0.0,
        "learner.train.calls": calls["learner.train"],
        "learner.train.s": s("learner.train"),
        "learner.train.p50_ms": train_p50,
        "learner.train.tail_ms": train_tail,
        "learner.sgd_steps": sgd_steps,
        "learner.train.us_per_step": busy["learner.train"] / 1e3 / sgd_steps if sgd_steps else 0.0,
        "learner.predict_batch.calls": calls["learner.predict_batch"],
        "learner.predict_batch.s": s("learner.predict_batch"),
        "learner.predict_batch.rows": totals["learner.predict_batch.rows"],
        "protocol.run.calls": calls["protocol.run"],
        "protocol.run.s": s("protocol.run"),
        "protocol.self_s": self_ns["protocol.run"] / 1e9,
        "protocol.cells_scored": totals["protocol.run.cells"],
        "protocol.audit_streaming_order.s": s("protocol.audit_streaming_order"),
        "metrics.compute_metrics.calls": calls["metrics.compute_metrics"],
        "metrics.compute_metrics.s": s("metrics.compute_metrics"),
        "metrics.aggregate.s": s("metrics.aggregate"),
        "curate.load_embedding_file.s": s("curate.load_embedding_file"),
        "curate.load_embedding_file.mib_per_s": mib_per_s("curate.load_embedding_file"),
        "curate.rank_all.s": s("curate.rank_all"),
        "curate.select_labeled.s": s("curate.select_labeled"),
        "curate.assemble_background.s": s("curate.assemble_background"),
        "curate.finalize_bucket.s": s("curate.finalize_bucket"),
        "curate.curated_samples.s": s("curate.curated_samples"),
        "runner.validate_config.s": s("runner.validate_config"),
        "runner.load_stream.s": s("runner.load_stream"),
        "runner.self_s": self_ns["runner.run_experiment"] / 1e9,
        "cli.self_s": self_ns["cli.main"] / 1e9,
        # Every curate.* span, for the check that curation runs only where expected.
        "curate.calls": sum(v for k, v in calls.items() if k.startswith("curate.")),
    }
