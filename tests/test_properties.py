"""Property tests for the config parser, the matrix and event-log formats, the metrics and
matrix validation against their whole-array references, the replay buffer, ``fit`` on
row indices against ``fit`` on the gathered rows,
the runner's event logs against the protocol's events, the array readers of feature and
embedding files against their line-by-line references, the readers' record splitter
against a text-mode file's lines, the text inputs' line numbers against a text-mode
file's, ``bucketize`` against the sorted-sample version it replaced, and the feature
writer's bulk float formatter against ``repr``."""

import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftbench.protocol as protocol_module
import driftbench.runner as runner_module

from driftbench.corpus import (
    Sample,
    as_arrays,
    bucket_shape,
    bucketize,
    read_feature_file,
    read_text,
    record_lines,
    repr_rows,
    write_feature_file,
)
from driftbench.curate import load_query_file, load_rejection_list
from driftbench.learner import Hyperparams, Strategy, fit, init_learner, parse_architecture
from driftbench.metrics import METRIC_NAMES, compute_metrics
from driftbench.protocol import (
    LEARNER_SEED_OFFSET,
    AccuracyMatrix,
    Event,
    ProtocolKind,
    event_log_text,
    matrix_from_text,
    matrix_to_text,
    parse_event_log,
    run_iid_protocol,
    run_streaming_protocol,
)
from driftbench.runner import ConfigError, load_stream, read_curation_spec, run_experiment, validate_config
from driftbench.sampler import AlphaPolicy, PolicyKind, ReplayBuffer, update_buffer
from line_readers import load_embedding_lines, load_feature_lines
from matrix_curation import load_embedding_file
from run_reference import reference_tree

# Derandomized so the suite replays the same examples on every run.
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=80)


@st.composite
def matrices(draw):
    n = draw(st.integers(2, 6))
    protocol = draw(st.sampled_from(list(ProtocolKind)))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    cells = np.array(values).reshape(n, n)
    if protocol is ProtocolKind.STREAMING:
        cells[~np.triu(np.ones((n, n), dtype=bool), k=1)] = np.nan
    return AccuracyMatrix(cells=cells, protocol=protocol)


events = st.builds(
    Event,
    kind=st.sampled_from(["train", "evaluate"]),
    step=st.integers(0, 10**6),
    bucket=st.integers(0, 10**6),
)

policies = st.builds(
    AlphaPolicy,
    kind=st.sampled_from(list(PolicyKind)),
    value=st.floats(0.05, 4.0),
)


def make_buckets(sizes):
    """Row indices of consecutive buckets of the given sizes, as the protocols pass them."""
    offsets = np.cumsum([0] + sizes).tolist()
    return [range(lo, hi) for lo, hi in zip(offsets, offsets[1:])]


bucket_sizes = st.lists(st.integers(1, 12), min_size=1, max_size=8)


@SETTINGS
@given(matrices())
def test_written_matrix_text_is_a_fixed_point(matrix):
    text = matrix_to_text(matrix)
    assert matrix_to_text(matrix_from_text(text)) == text


@SETTINGS
@given(st.sampled_from(list(ProtocolKind)), st.lists(events, max_size=30))
def test_event_log_roundtrip(protocol, evs):
    assert parse_event_log(event_log_text(protocol, evs)) == (protocol, evs)


def matrix_text_per_cell(matrix):
    """Reference writer: one ``.6f`` format per present cell, ``NA`` per absent one."""
    lines = [f"N={matrix.n} protocol={matrix.protocol.value}"]
    for row in matrix.cells:
        lines.append(",".join("NA" if v != v else f"{v:.6f}" for v in row.tolist()))
    return "\n".join(lines) + "\n"


# Exact values, ``.6f`` rounding ties and a signed zero, mixed into seeded uniform cells.
EDGE_CELLS = [0.0, -0.0, 1.0, 0.5, 0.0000005, 0.0000015, 0.0000025, 0.1234565, 0.9999995, 0.9999985]


@st.composite
def wide_matrices(draw):
    n = draw(st.integers(2, 40))
    protocol = draw(st.sampled_from(list(ProtocolKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((n, n))
    edges = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    cells[edges] = rng.choice(EDGE_CELLS, size=int(edges.sum()))
    drawn = draw(st.lists(st.floats(0.0, 1.0), max_size=n))
    cells.flat[rng.choice(n * n, size=len(drawn), replace=False)] = drawn
    if protocol is ProtocolKind.STREAMING:
        cells[~np.triu(np.ones((n, n), dtype=bool), k=1)] = np.nan
    return AccuracyMatrix(cells=cells, protocol=protocol)


@SETTINGS
@given(wide_matrices())
def test_matrix_text_matches_per_cell_writer(matrix):
    assert matrix_to_text(matrix) == matrix_text_per_cell(matrix)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_matrix_text_keeps_the_sign_of_a_zero_after_zero(protocol):
    # -0.0 equals 0.0, as a dict key too: a writer that formats each distinct
    # value once must not write the first zero's text for the second.
    cells = np.array([[0.5, 0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -0.0], [0.0, 0.0, 1.0, -0.0], [0.0] * 4])
    if protocol is ProtocolKind.STREAMING:
        cells[~np.triu(np.ones((4, 4), dtype=bool), k=1)] = np.nan
    matrix = AccuracyMatrix(cells=cells, protocol=protocol)
    text = matrix_to_text(matrix)
    assert text == matrix_text_per_cell(matrix)
    assert text.splitlines()[1].endswith("0.000000,-0.000000,0.000000")


def metrics_by_whole_lists(matrix):
    """Reference: the N x N index grids as masks, each region summed by fsum over one list."""
    rows, cols = np.indices((matrix.n, matrix.n))
    masks = {"accuracy": rows >= cols, "backward_transfer": rows > cols, "forward_transfer": rows < cols,
             "in_domain": rows == cols, "next_domain": cols == rows + 1}
    out = {}
    for name, mask in masks.items():
        region = matrix.cells[mask]
        out[name] = None if np.any(np.isnan(region)) else math.fsum(region.tolist()) / region.size
    return out


@st.composite
def metric_matrices(draw):
    """Matrices up to 120 x 120, so a triangle spans several fsum slices; values far apart in scale."""
    n = draw(st.integers(2, 120))
    protocol = draw(st.sampled_from(list(ProtocolKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((n, n)) ** draw(st.sampled_from([1, 8, 40]))
    cells[rng.random((n, n)) < 0.05] = 1.0
    if protocol is ProtocolKind.STREAMING:
        cells[~np.triu(np.ones((n, n), dtype=bool), k=1)] = np.nan
    return AccuracyMatrix(cells=cells, protocol=protocol)


@SETTINGS
@given(metric_matrices())
def test_metrics_equal_whole_list_sums(matrix):
    report = compute_metrics(matrix)
    assert {name: getattr(report, name) for name in METRIC_NAMES} == metrics_by_whole_lists(matrix)


def presence_error(cells, protocol):
    """Reference validation: one boolean per cell, the present values copied out, a triangle of ones."""
    n = cells.shape[0]
    present = ~np.isnan(cells)
    values = cells[present]
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        return "accuracy cells must lie in [0, 1]"
    expected = np.ones((n, n), dtype=bool)
    if protocol is ProtocolKind.STREAMING:
        expected = np.triu(expected, k=1)
    if not np.array_equal(present, expected):
        return f"cell presence does not match {protocol.value} protocol"
    return None


@SETTINGS
@given(st.integers(2, 12), st.sampled_from(list(ProtocolKind)), st.data())
def test_matrix_validation_matches_reference(n, protocol, data):
    # Start from the other protocol's pattern half the time, flip a few cells,
    # then perhaps swap two cells of one row, which keeps the row's count of absent cells.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((n, n))
    if protocol is ProtocolKind.STREAMING or data.draw(st.booleans()):
        cells[~np.triu(np.ones((n, n), dtype=bool), k=1)] = np.nan
    index = st.integers(0, n - 1)
    for i, j in data.draw(st.lists(st.tuples(index, index), max_size=3)):
        cells[i, j] = 0.5 if np.isnan(cells[i, j]) else np.nan
    if data.draw(st.booleans()):
        i, j, k = data.draw(index), data.draw(index), data.draw(index)
        cells[i, [j, k]] = cells[i, [k, j]]
    if data.draw(st.booleans()):
        cells.flat[data.draw(st.integers(0, n * n - 1))] = data.draw(
            st.sampled_from([-0.1, 1.5, np.inf, -np.inf, 0.0, 1.0]))
    want = presence_error(cells, protocol)
    if want is None:
        AccuracyMatrix(cells=cells, protocol=protocol)
    else:
        with pytest.raises(ValueError) as err:
            AccuracyMatrix(cells=cells, protocol=protocol)
        assert str(err.value) == want


def pickle_records(path):
    """Every object pickled one after another into the file at ``path``."""
    records = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            records.append(pickle.load(fh))
    return records


def one_cell_config(kind, n):
    """A two-seed grid of one tiny ``kind`` cell over ``n`` buckets of 6 samples."""
    extra = "train_fraction = 0.5\n" if kind is ProtocolKind.IID else ""
    return (
        "[stream]\nsource = synthetic\nclasses = 2\ndim = 3\n"
        f"buckets = {n}\nper_class = 3\nnoise = 0.3\ndrift_rate = 0.2\n"
        f"[cell:c]\nprotocol = {kind.value}\nstrategy = finetuning\n{extra}"
        "buffer_capacity = 8\nn_seeds = 2\nbase_seed = 0\nbatch = 4\nepochs = 1\ndecay_epoch = 1\n"
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(st.sampled_from(list(ProtocolKind)), st.integers(2, 30), st.data())
def test_runner_event_log_matches_public_event_log(tmp_path_factory, kind, n, data):
    # Seed 1 diverges at a drawn fitted step: the runner keeps seed 0's log,
    # writes none for seed 1, and the public log of seed 1 keeps the events
    # of the steps it began.
    fits = n if kind is ProtocolKind.IID else n - 1
    diverge_at = data.draw(st.integers(0, fits - 1))
    real_step = protocol_module.strategy_step
    # The runner forks a worker for seed 1, so each call is recorded in a file both processes append to.
    recorded = tmp_path_factory.mktemp("calls") / "calls.pkl"

    def diverging_step(strategy, prev, i, x, y, hp, arch, rows):
        if hp.seed - LEARNER_SEED_OFFSET - i == 1 and i == diverge_at:
            raise FloatingPointError("training diverged")
        return real_step(strategy, prev, i, x, y, hp, arch, rows)

    public = run_iid_protocol if kind is ProtocolKind.IID else run_streaming_protocol

    def recording(stream, cfg, seed, **kwargs):
        with open(recorded, "ab") as fh:
            fh.write(pickle.dumps((cfg, seed)))
        return public(stream, cfg, seed, **kwargs)

    out = tmp_path_factory.mktemp("run")
    grid = validate_config(one_cell_config(kind, n), out)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol_module, "strategy_step", diverging_step)
        mp.setattr(f"driftbench.runner.{public.__name__}", recording)
        mp.setattr(runner_module, "_process_count", lambda units: min(units, 2))
        result = run_experiment(grid)
        cell_dir = out / "c"
        assert set(result.failures) == {"c"} and "diverged" in result.failures["c"]
        assert not (cell_dir / "events_seed1.log").exists()
        stream = load_stream(grid.stream)  # the run's stream, generated again from its spec
        calls = [(stream, cfg, seed) for cfg, seed in pickle_records(recorded)]
        (stream, cfg, _), _ = calls
        full: list[Event] = []
        public(stream, cfg, 0, event_log=full)
        assert (cell_dir / "events_seed0.log").read_text() == event_log_text(kind, full)

        partial: list[Event] = []
        with pytest.raises(FloatingPointError):
            public(stream, cfg, 1, event_log=partial)
    full = []
    public(stream, cfg, 1, event_log=full)
    began = full.index(Event("train", diverge_at, diverge_at)) + 1
    assert partial == full[:began]


@SETTINGS
@given(st.sampled_from(["linear", "mlp:5"]), st.data())
def test_fit_on_rows_equals_fit_on_the_gathered_rows(architecture, data):
    # Rows in any order, repeats allowed, and batch sizes that need not
    # divide their count; a non-finite feature counts only in a training row.
    n, d = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x, y = rng.standard_normal((n, d)), rng.integers(0, 3, n)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    hp = Hyperparams(
        learning_rate=0.1,
        weight_decay=data.draw(st.sampled_from([0.0, 1e-3])),
        batch_size=data.draw(st.integers(1, len(rows) + 2)),
        epochs=data.draw(st.integers(1, 3)),
        decay_epoch=1,
        seed=data.draw(st.integers(0, 100)),
    )
    state = init_learner(parse_architecture(architecture, d=d, C=3), seed=hp.seed)
    want = fit(state, x[rows], y[rows], hp)

    def assert_fits_want(got):
        for name in want.params:
            assert got.params[name].tobytes() == want.params[name].tobytes()
            assert got.velocity[name].tobytes() == want.velocity[name].tobytes()

    assert_fits_want(fit(state, x, y, hp, rows))
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    outside = np.setdiff1d(np.arange(n), rows)
    if len(outside):
        bad = x.copy()
        bad[data.draw(st.sampled_from(outside.tolist())), data.draw(st.integers(0, d - 1))] = value
        assert_fits_want(fit(state, bad, y, hp, rows))
    bad = x.copy()
    bad[data.draw(st.sampled_from(rows.tolist())), data.draw(st.integers(0, d - 1))] = value
    with pytest.raises(ValueError, match="non-finite feature value"):
        fit(state, bad, y, hp, rows)
    with pytest.raises(ValueError, match="non-finite feature value"):
        fit(state, bad[rows], y[rows], hp)


@SETTINGS
@given(st.integers(1, 20), bucket_sizes, policies, st.integers(0, 2**32 - 1))
def test_update_buffer_invariants(capacity, sizes, policy, seed):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer.empty(capacity)
    seen = 0
    for bucket in make_buckets(sizes):
        buf = update_buffer(buf, bucket, policy, rng)
        seen += len(bucket)
        ids = list(buf.entries)
        assert len(ids) == min(capacity, seen)
        assert buf.seen_count == seen
        assert len(set(ids)) == len(ids)


@SETTINGS
@given(st.integers(1, 20), bucket_sizes, st.integers(0, 2**32 - 1))
def test_dynamic_unit_keeps_last_k_in_order(capacity, sizes, seed):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer.empty(capacity)
    arrived: list[int] = []
    for bucket in make_buckets(sizes):
        buf = update_buffer(buf, bucket, AlphaPolicy(PolicyKind.DYNAMIC, 1.0), rng)
        arrived.extend(bucket)
        assert list(buf.entries) == arrived[-capacity:]


# A config entry is (key, value text, expected parsed value, reader, corrupt text):
# the reader takes the parsed grid to the value; the corrupt text does not parse.
POSITIVE = st.floats(1e-3, 1e3)


def _number(key, value, reader):
    return (key, repr(value) if isinstance(value, float) else str(value), value, reader, "@")


def _optional(draw, entries):
    return [e for e in entries if draw(st.booleans())]


@st.composite
def stream_entries(draw):
    source = draw(st.sampled_from(["synthetic", "file"]))
    entries = [
        ("source", source, source, lambda g: g.stream.source, "bogus"),
        _number("buckets", draw(st.integers(1, 50)), lambda g: g.stream.n_buckets),
    ]
    if source == "file":
        path = draw(st.from_regex(r"[a-z]{1,8}\.tsv", fullmatch=True))
        normalize = draw(st.booleans())
        return entries + [("path", path, path, lambda g: g.stream.path, None)] + _optional(
            draw, [("normalize", str(normalize).lower(), normalize, lambda g: g.stream.normalize, "maybe")]
        )
    drift = {
        "classes": ("C", st.integers(1, 20)),
        "dim": ("d", st.integers(2, 64)),
        "per_class": ("n_per_class", st.integers(1, 500)),
        "noise": ("noise", POSITIVE),
        "radius": ("radius", POSITIVE),
        "drift_rate": ("drift_rate", st.floats(0.0, 10.0)),
        "stream_seed": ("seed", st.integers(0, 2**31)),
    }
    for key, (field, values) in drift.items():
        if key in ("classes", "dim", "per_class", "noise") or draw(st.booleans()):
            entries.append(_number(key, draw(values), lambda g, f=field: getattr(g.stream.drift, f)))
    return entries


def _cell(grid, name):
    return next(c for c in grid.cells if c.name == name)


@st.composite
def cell_entries(draw, name):
    def read(attr):
        return lambda g: getattr(_cell(g, name), attr)

    def read_hp(attr):
        return lambda g: getattr(_cell(g, name).hyperparams, attr)

    protocol = draw(st.sampled_from(list(ProtocolKind)))
    strategy = draw(st.sampled_from(list(Strategy)))
    arch = draw(st.sampled_from(["linear", "mlp:8", "mlp:64"]))
    policy = AlphaPolicy(draw(st.sampled_from(list(PolicyKind))), draw(st.floats(0.01, 10.0)))
    entries = [
        ("protocol", protocol.value, protocol, read("protocol"), "bogus"),
        ("strategy", strategy.value, strategy, read("strategy"), "bogus"),
        _number("buffer_capacity", draw(st.integers(1, 10**6)), read("buffer_capacity")),
    ]
    if protocol is ProtocolKind.IID:
        entries.append(_number("train_fraction", draw(st.floats(0.01, 0.99)), read("train_fraction")))
    entries += _optional(draw, [
        ("architecture", arch, arch, read("arch_text"), "bogus"),
        ("alpha", f"{policy.kind.value}:{policy.value!r}", policy, read("policy"), "bogus"),
        _number("n_seeds", draw(st.integers(1, 10)), read("n_seeds")),
        _number("base_seed", draw(st.integers(0, 10**6)), read("base_seed")),
        _number("lr", draw(st.floats(0.0, 10.0)), read_hp("learning_rate")),
        _number("momentum", draw(st.floats(0.0, 0.99)), read_hp("momentum")),
        _number("weight_decay", draw(st.floats(0.0, 1.0)), read_hp("weight_decay")),
        _number("batch", draw(st.integers(1, 1024)), read_hp("batch_size")),
        _number("decay_factor", draw(st.floats(0.01, 1.0)), read_hp("decay_factor")),
    ])
    if draw(st.booleans()):  # the defaults, 100 and 60, are valid only together
        epochs = draw(st.integers(1, 200))
        entries.append(_number("epochs", epochs, read_hp("epochs")))
        entries.append(_number("decay_epoch", draw(st.integers(1, epochs)), read_hp("decay_epoch")))
    return entries


@st.composite
def configs(draw):
    """A valid config's lines, and (line number, key, expected, reader, corrupt text) per key."""
    sections = [("stream", draw(stream_entries()))]
    for k in range(draw(st.integers(1, 3))):
        sections.append((f"cell:c{k}", draw(cell_entries(f"c{k}"))))
    lines, entries = [], []
    for header, items in sections:
        lines.append(f"[{header}]")
        for key, text, expected, reader, corrupt in draw(st.permutations(items)):
            lines.append(f"{key} = {text}")
            entries.append((len(lines), key, expected, reader, corrupt))
        lines.append("")
    return lines, entries


@SETTINGS
@given(configs(), st.data())
def test_config_values_preserved_and_corruption_named(config, data):
    lines, entries = config
    grid = validate_config("\n".join(lines), "out")
    for _, key, expected, reader, _ in entries:
        assert reader(grid) == expected, key
    lineno, key, _, _, corrupt = data.draw(st.sampled_from([e for e in entries if e[4]]))
    lines[lineno - 1] = f"{key} = {corrupt}"
    with pytest.raises(ConfigError) as err:
        validate_config("\n".join(lines), "out")
    assert f"line {lineno}:" in str(err.value)


# Vector files: a well-formed file with one named corruption, and sometimes a
# second drawn one, each of a kind a reader must reject or read as the
# line-by-line reference does.  Components span every finite float, so some
# squared norms overflow; readers must reject those vectors by line, and
# without numpy's overflow warning, which pytest turns into an error.  The
# files are written with "surrogateescape", so the token "\udcff" is the byte
# 0xff, which is not UTF-8.
COMPONENTS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ODD_TOKENS = ["nan", "inf", "-inf", "1_0", "1#2", "#", "", " 2.5 ", "-0.0", "1e3", "\u0661", "x", "\udcff"]
CORRUPTIONS = [
    "none", "blank", "padded", "hash", "extra_component", "missing_component", "duplicate_id",
    "zero_vector", "extra_field", "bad_id", "negative_id", "header_only",
] + [f"token:{token}" for token in ODD_TOKENS]
FILE_SETTINGS = settings(SETTINGS, max_examples=15)


@st.composite
def vector_files(draw, lead_fields, corruption):
    """(k, body lines) of a file whose records have ``lead_fields`` int fields and k components."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    records = [
        [str(i)] + [str(draw(st.integers(0, 3))) for _ in range(lead_fields - 1)]
        + [draw(COMPONENTS) for _ in range(k)]
        for i in ids
    ]
    padded: set[int] = set()
    blanks: list[tuple[int, str]] = []
    header_only = False
    for kind in [corruption] + draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=1)):
        r = draw(st.integers(0, n - 1))
        record = records[r]
        if kind == "padded":
            padded.add(r)
        elif kind == "blank":
            blanks.append((r, draw(st.sampled_from(["", "   ", "\t"]))))
        elif kind == "header_only":
            header_only = True
        elif kind == "hash":
            record[-1] += "#1"
        elif kind.startswith("token:"):
            record[draw(st.integers(lead_fields, len(record) - 1))] = kind.partition(":")[2]
        elif kind == "extra_component":
            record.append("1.0")
        elif kind == "missing_component":
            record.pop()
        elif kind == "duplicate_id":
            record[0] = records[0][0]
        elif kind == "zero_vector":
            record[lead_fields:] = ["0.0"] * (len(record) - lead_fields)
        elif kind == "extra_field":
            record[0] += "\t7"
        elif kind == "bad_id":
            record[0] = draw(st.sampled_from(["x", "1_0", "", "1.5", str(2**70)]))
        elif kind == "negative_id":
            record[0] = "-" + record[0]
    body = []
    for r, record in enumerate([] if header_only else records):
        line = "\t".join(record[:lead_fields]) + "\t" + ",".join(record[lead_fields:])
        body.append(f" \t {line} " if r in padded else line)
    for r, blank in blanks:
        body.insert(min(r, len(body)), blank)
    return k, body


def _outcome(load, path, *args):
    """Each loaded array as (dtype, shape, bytes), other values as they are; or the error's type and text."""
    try:
        loaded = load(path, *args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in loaded]


def _assert_reader_matches(path, reader, reference, *args):
    assert _outcome(reader, path, *args) == _outcome(reference, path, *args)


@pytest.fixture(scope="module")
def vector_path(tmp_path_factory):
    return tmp_path_factory.mktemp("vectors") / "vectors.tsv"


DIM_OFFSETS = st.sampled_from([0, 0, 0, -1, 1])


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@FILE_SETTINGS
@given(data=st.data(), dim_offset=DIM_OFFSETS)
def test_embedding_reader_matches_line_reference(vector_path, corruption, data, dim_offset):
    k, body = data.draw(vector_files(1, corruption))
    vector_path.write_text("\n".join([f"#m={k + dim_offset}"] + body) + "\n", encoding="utf-8",
                           errors="surrogateescape")
    _assert_reader_matches(vector_path, load_embedding_file, load_embedding_lines)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@FILE_SETTINGS
@given(data=st.data(), dim_offset=DIM_OFFSETS, classes=st.integers(1, 4), normalize=st.booleans())
def test_feature_reader_matches_line_reference(
    vector_path, corruption, data, dim_offset, classes, normalize
):
    k, body = data.draw(vector_files(3, corruption))
    vector_path.write_text("\n".join([f"#d={k + dim_offset} C={classes}"] + body) + "\n",
                           encoding="utf-8", errors="surrogateescape")
    _assert_reader_matches(vector_path, read_feature_file, load_feature_lines, normalize)


# Header values: integers, out of range, not integers, and the spellings int() reads
# but the grammar does not ("1_0", "+1", an Arabic-Indic and a fullwidth one).
HEADER_VALUES = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(
    ["", "x", "1.5", "1e1", "0x2", str(2**63), str(-(2**63) - 1), "1_0", "+1", "١", "１", "02"]))


@st.composite
def header_lines(draw, names):
    """A header line for ``names``, mostly well formed: keys missing, repeated or unknown, and parts without ``=``."""
    keys = [name for name in names for _ in range(draw(st.sampled_from([1, 1, 1, 1, 1, 0, 2])))]
    keys = draw(st.permutations(keys + draw(st.lists(st.sampled_from(["x", "M", "c", ""]), max_size=2))))
    value = st.one_of(st.integers(1, 6).map(str), HEADER_VALUES)
    forms = st.sampled_from(["{}={}"] * 12 + ["{}=={}", "{}", "={}"])
    parts = [draw(forms).format(key, draw(value)) for key in keys]
    gaps = draw(st.lists(st.sampled_from([" ", " ", "\t", "  ", " \x0b"]), min_size=len(parts), max_size=len(parts)))
    lead = draw(st.sampled_from(["#"] * 5 + ["# ", "##", "", " #"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "", " \n"]))
    return lead + "".join(gap + part for gap, part in zip(gaps, parts)).lstrip(" ") + end


@SETTINGS
@given(data=st.data())
def test_header_parse_matches_the_header_grammar(vector_path, data):
    # Header-only files: the readers and the references agree on the values or on the error.
    names, reader, reference = data.draw(st.sampled_from([
        (("d", "C"), read_feature_file, load_feature_lines),
        (("m",), load_embedding_file, load_embedding_lines),
    ]))
    vector_path.write_bytes(data.draw(header_lines(names)).encode("utf-8"))
    _assert_reader_matches(vector_path, reader, reference)


# Line text: any character (line breaks included), weighted towards whitespace that
# ``str.strip`` removes but text-mode files do not split at, and non-ASCII letters.
line_text = st.text(st.one_of(st.sampled_from(" \t\x0b\x0c\x1c\x85\u2028\u3000,0é中"),
                              st.characters(blacklist_categories=("Cs",))), max_size=6)


# Text inputs: lines end in "\n", "\r\n" or "\r", and blank and good lines hold the
# breaks that ``str.splitlines`` splits at but a text-mode file does not.  Per
# input: the lines before the drawn ones, a good line ("{i}" is its index), how
# the input is read, and the start of the error for a bad line ``n``.
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
blank_text = st.text(st.sampled_from(SPLITLINES_ONLY + " \t"), min_size=1, max_size=3)
comment = st.builds("#{}note{}".format, blank_text, blank_text)
TEXT_INPUTS = {
    "config": ([], comment, lambda path: validate_config(read_text(path, ConfigError), path.parent),
               "line {n}: expected 'key = value', got 'oops'"),
    "spec": ([], comment, read_curation_spec, "{path}: line {n}: expected 'key = value', got 'oops'"),
    "queries": ([], st.one_of(comment, st.builds("{}q{{i}}\t1.0,2.0{}".format, blank_text, blank_text)),
                load_query_file, "{path}:{n}: expected 'name<TAB>vector'"),
    "rejections": ([], st.builds("{}7{}".format, blank_text, blank_text), load_rejection_list,
                   "{path}:{n}: bad id 'oops'"),
    "event log": (["protocol=iid"], st.just("train\t0\t0"), lambda path: parse_event_log(read_text(path, ValueError)),
                  "line {n}: expected 3 tab-separated fields, got 1"),
}


@pytest.fixture(scope="module")
def text_path(tmp_path_factory):
    return tmp_path_factory.mktemp("text") / "input.txt"


@pytest.mark.parametrize("kind", TEXT_INPUTS)
@SETTINGS
@given(data=st.data())
def test_text_inputs_name_a_bad_line_by_its_text_mode_number(text_path, kind, data):
    first, good, read, message = TEXT_INPUTS[kind]
    lines = first + data.draw(st.lists(st.one_of(blank_text, good), max_size=6)) + ["oops"]
    lines += data.draw(st.lists(st.one_of(blank_text, good), max_size=2))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line.replace("{i}", str(i)) + end for i, (line, end) in enumerate(zip(lines, ends)))
    text_path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError) as caught:
        read(text_path)
    assert str(caught.value).startswith(message.format(path=text_path, n=lines.index("oops") + 1))


@SETTINGS
@given(st.lists(st.tuples(line_text, st.sampled_from(["\n", "\r\n", "\r", ""]))), st.integers(0, 2**40))
def test_record_lines_are_the_text_mode_lines_that_hold_records(lines, base):
    chunk = "".join(text + end for text, end in lines).encode("utf-8")
    got, spans = record_lines(base, chunk)
    expected = [line for line in io.TextIOWrapper(io.BytesIO(chunk), encoding="utf-8") if line.strip()]
    assert [line.strip() for line in got] == [line.strip() for line in expected]
    assert spans.shape == (2, len(got))
    for line, (start, stop) in zip(got, spans.T.tolist()):
        assert chunk[start - base : stop - base].decode("utf-8") == line


def _bucketize_samples(samples, n_buckets):
    """``bucketize`` as it was when it took samples: sort them by (timestamp, id), then stack."""
    size, dropped = bucket_shape(len(samples), n_buckets)
    kept = sorted(samples, key=lambda s: (s.timestamp, s.id))[: size * n_buckets]
    x, y = as_arrays(kept)
    ids = np.array([s.id for s in kept])
    timestamps = np.array([s.timestamp for s in kept])
    return x, y, ids, timestamps, np.arange(n_buckets + 1) * size, dropped


def repr_text(block):
    return [(",".join(map(repr, row)) + "\n").encode() for row in block.tolist()]


# Every float: NaN, both infinities, -0.0 and subnormals included.
@SETTINGS
@given(st.lists(st.floats(), min_size=1, max_size=48), st.integers(1, 4))
def test_repr_rows_is_repr_of_every_float(values, rows):
    block = np.array(values * rows).reshape(rows, -1)
    assert repr_rows(block) == repr_text(block)


# Unit rows, the values a curated feature file holds.
@SETTINGS
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80).filter(any), st.integers(1, 3))
def test_repr_rows_is_repr_of_unit_rows(values, rows):
    block = np.repeat((np.array(values) / math.hypot(*values))[None, :], rows, axis=0)
    assert repr_rows(block) == repr_text(block)


@SETTINGS
@given(st.data())
def test_bucketize_matches_sorted_sample_reference(data):
    n = data.draw(st.integers(1, 40))
    n_buckets = data.draw(st.integers(1, n))
    # Unique ids in drawn (shuffled) order; timestamps with ties, negatives and int64 extremes.
    ids = data.draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True))
    stamp = st.one_of(st.integers(-3, 3), st.sampled_from([-2**63, 2**63 - 1]))
    timestamps = data.draw(st.lists(stamp, min_size=n, max_size=n))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    x = np.random.default_rng(n).standard_normal((n, data.draw(st.integers(1, 4))))
    samples = [Sample(i, t, row, c) for i, t, row, c in zip(ids, timestamps, x, labels)]
    ref_x, ref_y, ref_ids, ref_ts, ref_offsets, ref_dropped = _bucketize_samples(samples, n_buckets)
    stream = bucketize(np.array(ids), np.array(timestamps), x, np.array(labels), n_buckets, C=3)
    assert stream.x.tobytes() == ref_x.tobytes() and stream.x.shape == ref_x.shape
    for got, want in [(stream.y, ref_y), (stream.ids, ref_ids), (stream.timestamps, ref_ts),
                      (stream.offsets, ref_offsets)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert stream.dropped == ref_dropped


@st.composite
def process_grids(draw, root):
    """A small grid's config text: a synthetic stream or a feature file, then one to three drawn cells.

    The file's timestamps tie often, its rows are in no order, and its row
    count need not divide into the buckets, so ``bucketize`` sorts and drops.
    """
    n = draw(st.integers(2, 5))
    classes = draw(st.integers(2, 3))
    if draw(st.booleans()):
        per_class = draw(st.integers(1, 3))
        stream = (f"source = synthetic\nclasses = {classes}\ndim = 3\nper_class = {per_class}\n"
                  f"noise = 0.3\ndrift_rate = 0.4\nstream_seed = {draw(st.integers(0, 9))}\n")
        rows = classes * per_class * n
    else:
        rows = n * draw(st.integers(2, 6)) + draw(st.integers(0, n - 1))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        path = root / "stream.tsv"
        write_feature_file(path, rng.permutation(10 * rows)[:rows], rng.integers(0, 4, rows),
                           rng.integers(0, classes, rows), rng.standard_normal((rows, 3)), np.arange(rows), classes)
        stream = f"source = file\npath = {path}\nnormalize = {str(draw(st.booleans())).lower()}\n"
    cells = []
    for k in range(draw(st.integers(1, 3))):
        protocol = draw(st.sampled_from(list(ProtocolKind)))
        epochs = draw(st.integers(1, 2))
        cells.append(
            f"[cell:c{k}]\nprotocol = {protocol.value}\nstrategy = {draw(st.sampled_from(list(Strategy))).value}\n"
            f"architecture = {draw(st.sampled_from(['linear', 'mlp:4']))}\n"
            f"alpha = {draw(st.sampled_from(list(PolicyKind))).value}:{draw(st.sampled_from([0.5, 1.0, 2.0]))}\n"
            # A capacity below a bucket, often: the buffer then holds a draw, not the whole stream.
            f"buffer_capacity = {draw(st.one_of(st.integers(1, 3), st.integers(1, rows + 2)))}\n"
            f"n_seeds = {draw(st.integers(1, 2))}\n"
            f"base_seed = {draw(st.integers(0, 3))}\nbatch = {draw(st.integers(1, 8))}\n"
            f"epochs = {epochs}\ndecay_epoch = {draw(st.integers(1, epochs))}\n"
            # 0.75 leaves no test rows in a bucket of 3 or fewer: that cell fails, in every process count.
            + (f"train_fraction = {draw(st.sampled_from([0.5, 0.75]))}\n" if protocol is ProtocolKind.IID else "")
        )
    return f"[stream]\nbuckets = {n}\n{stream}\n" + "\n".join(cells)


def run_tree(root):
    """Every file under ``root``, by its path relative to ``root``, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.data())
def test_run_tree_is_the_same_in_one_two_and_three_processes(tmp_path_factory, data):
    # Each tree is also the naive reference's, file for file and byte for byte.
    root = tmp_path_factory.mktemp("grid")
    text = data.draw(process_grids(root))
    expected = reference_tree(validate_config(text, root / "out"))
    with pytest.MonkeyPatch.context() as mp:
        for processes in (1, 2, 3):
            mp.setattr(runner_module, "_process_count", lambda units, p=processes: min(units, p))
            run_experiment(validate_config(text, root / f"out{processes}"))
            tree = run_tree(root / f"out{processes}")
            assert sorted(tree) == sorted(expected), processes
            assert [name for name in tree if tree[name] != expected[name]] == [], processes
