"""A naive reference of ``run_experiment``: each (cell, seed) run from the protocols' definition.

It shares the learner's, the sampler's and the split's arithmetic with the
package, so its files can equal a run's byte for byte, and none of
``protocol._run_protocol``'s bookkeeping: the stream is a list of
:class:`Sample` lists, the replay buffer holds samples, every model is
trained by the public :func:`train` on the samples it is given, every cell
is one :func:`evaluate` of one target, and the event log is the list of
events in the order the steps run them.

Per seed ``r`` of a cell, bucket ``t``'s iid split is seeded with
``r + SPLIT_SEED_OFFSET + t``, the sampler with ``r + SAMPLER_SEED_OFFSET``
and step ``i``'s training with ``r + LEARNER_SEED_OFFSET + i``.  Step ``i``
folds bucket ``i`` (its train split, for iid) into the buffer; every
strategy trains a fresh model at step 0, From-Scratch again at every step,
Finetuning goes on from the previous model and Napping keeps its first,
trained on the first bucket (its train split) whatever the buffer holds.
The model of step ``i`` is scored on every test split (iid) or on every
later bucket (streaming); streaming's last step trains nothing, as no
bucket is left to score.
"""

from dataclasses import replace

import numpy as np

from driftbench.corpus import Sample, generate_drift_stream, read_feature_file, split_iid
from driftbench.learner import Strategy, init_learner, parse_architecture, train
from driftbench.metrics import aggregate, compute_metrics, csv_rows, report_text
from driftbench.protocol import (
    LEARNER_SEED_OFFSET,
    SAMPLER_SEED_OFFSET,
    SPLIT_SEED_OFFSET,
    AccuracyMatrix,
    Event,
    ProtocolKind,
    evaluate,
    event_log_text,
    matrix_to_text,
)
from driftbench.runner import ExperimentGrid, StreamSpec
from driftbench.sampler import ReplayBuffer, update_buffer


def stream_buckets(spec: StreamSpec) -> tuple[list[list[Sample]], int]:
    """The stream's buckets, oldest first, and its class count.

    A file's samples are sorted by (timestamp, id) and cut into ``N``
    buckets of equal size, the remainder left out.
    """
    if spec.source == "synthetic":
        stream = generate_drift_stream(spec.drift)
        ids, timestamps, labels, x, classes = stream.ids, stream.timestamps, stream.y, stream.x, stream.C
    else:
        ids, timestamps, labels, x, classes = read_feature_file(spec.path, spec.normalize)
    n = spec.n_buckets
    samples = [Sample(int(i), int(t), row, int(label)) for i, t, label, row in zip(ids, timestamps, labels, x)]
    samples.sort(key=lambda s: (s.timestamp, s.id))
    size = len(samples) // n
    return [samples[t * size : (t + 1) * size] for t in range(n)], classes


def run_one(buckets, classes, cell, seed):
    """The accuracy matrix and event log of ``cell`` at ``seed``."""
    n = len(buckets)
    iid = cell.protocol is ProtocolKind.IID
    arch = parse_architecture(cell.arch_text, d=len(buckets[0][0].features), C=classes)
    if iid:
        splits = [split_iid(np.arange(len(bucket)), cell.train_fraction, seed + SPLIT_SEED_OFFSET + t)
                  for t, bucket in enumerate(buckets)]
        train_sets = [[bucket[k] for k in part.tolist()] for bucket, (part, _) in zip(buckets, splits)]
        targets = [[bucket[k] for k in part.tolist()] for bucket, (_, part) in zip(buckets, splits)]
    else:
        train_sets, targets = buckets, buckets
    buffer = ReplayBuffer.empty(cell.buffer_capacity)
    sampler_rng = np.random.default_rng(seed + SAMPLER_SEED_OFFSET)
    cells = np.full((n, n), np.nan)
    events = []
    state = None
    for i in range(n):
        buffer = update_buffer(buffer, train_sets[i], cell.policy, sampler_rng)
        events.append(Event("train", i, i))
        scored = range(n) if iid else range(i + 1, n)
        if not scored:
            continue
        hp = replace(cell.hyperparams, seed=seed + LEARNER_SEED_OFFSET + i)
        if i == 0 or cell.strategy is Strategy.FROM_SCRATCH:
            data = train_sets[0] if cell.strategy is Strategy.NAPPING else list(buffer.entries)
            state = train(init_learner(arch, hp.seed), data, hp)
        elif cell.strategy is Strategy.FINETUNING:
            state = train(state, list(buffer.entries), hp)
        for j in scored:
            cells[i, j] = evaluate(state, targets[j])
            events.append(Event("evaluate", i, j))
    protocol = ProtocolKind.IID if iid else ProtocolKind.STREAMING
    return AccuracyMatrix(cells, protocol), event_log_text(protocol, events)


def reference_tree(grid: ExperimentGrid) -> dict[str, bytes]:
    """Every file ``run_experiment(grid)`` writes, by its path under the output directory, with its bytes."""
    buckets, classes = stream_buckets(grid.stream)
    manifest = "".join(f"{t}\t{bucket[0].timestamp}\t{bucket[-1].timestamp}\t{len(bucket)}\n"
                       for t, bucket in enumerate(buckets))
    files = {"stream_manifest.tsv": manifest}
    summary = ["cell,metric,mean,std\n"]
    for cell in grid.cells:
        reports = []
        for seed in range(cell.base_seed, cell.base_seed + cell.n_seeds):
            try:
                matrix, log = run_one(buckets, classes, cell, seed)
            except Exception as exc:  # noqa: BLE001 - the cell's error.txt holds it
                files[f"{cell.name}/error.txt"] = f"{type(exc).__name__}: {exc}\n"
                break
            files[f"{cell.name}/matrix_seed{seed}.txt"] = matrix_to_text(matrix)
            files[f"{cell.name}/events_seed{seed}.log"] = log
            reports.append(compute_metrics(matrix))
        else:
            agg = aggregate(reports)
            files[f"{cell.name}/report.txt"] = report_text(agg)
            summary.extend(row + "\n" for row in csv_rows(cell.name, agg))
    files["summary.csv"] = "".join(summary)
    return {name: text.encode("utf-8") for name, text in sorted(files.items())}

