import inspect
import math

import numpy as np
import pytest

import driftbench.protocol as protocol_module
from driftbench.corpus import (
    Bucket,
    DriftConfig,
    Sample,
    TemporalStream,
    generate_drift_stream,
    split_iid,
)
from driftbench.learner import Architecture, Hyperparams, Strategy, init_learner, predict, strategy_step
from driftbench.metrics import aggregate, compute_metrics
from driftbench.protocol import (
    LEARNER_SEED_OFFSET,
    SPLIT_SEED_OFFSET,
    AccuracyMatrix,
    Event,
    ProtocolKind,
    ProtocolOrderError,
    RunConfig,
    audit_streaming_order,
    evaluate,
    event_log_text,
    matrix_from_text,
    matrix_to_text,
    parse_event_log,
    run_iid_protocol,
    run_streaming_protocol,
)

HP_FAST = Hyperparams(learning_rate=0.5, batch_size=64, epochs=6, decay_epoch=4)


def small_stream(drift_rate=0.0, C=3, d=4, N=4, n_per_class=40, noise=0.3, seed=5):
    return generate_drift_stream(
        DriftConfig(C=C, d=d, N=N, n_per_class=n_per_class, radius=1.0,
                    drift_rate=drift_rate, noise=noise, seed=seed)
    )


def config_for(stream, strategy=Strategy.FINETUNING, capacity=None, fraction=0.7, hp=HP_FAST, alpha="fixed"):
    from driftbench.sampler import AlphaPolicy, PolicyKind

    policy = (
        AlphaPolicy(PolicyKind.FIXED, 1.0) if alpha == "fixed" else AlphaPolicy(PolicyKind.DYNAMIC, 1.0)
    )
    bucket_size = len(stream.buckets[0])
    return RunConfig(
        strategy=strategy,
        architecture=Architecture("linear", stream.d, stream.C),
        hyperparams=hp,
        alpha_policy=policy,
        buffer_capacity=capacity or bucket_size,
        train_fraction=fraction,
    )


class TestAccuracyMatrix:
    def test_iid_requires_all_cells(self):
        cells = np.ones((3, 3))
        cells[1, 2] = np.nan
        with pytest.raises(ValueError):
            AccuracyMatrix(cells=cells, protocol=ProtocolKind.IID)

    def test_streaming_requires_strict_upper(self):
        cells = np.full((3, 3), np.nan)
        cells[0, 1] = cells[0, 2] = cells[1, 2] = 0.5
        AccuracyMatrix(cells=cells, protocol=ProtocolKind.STREAMING)
        cells[1, 0] = 0.5
        with pytest.raises(ValueError):
            AccuracyMatrix(cells=cells, protocol=ProtocolKind.STREAMING)

    def test_range_check(self):
        cells = np.ones((2, 2)) * 1.5
        with pytest.raises(ValueError):
            AccuracyMatrix(cells=cells, protocol=ProtocolKind.IID)

    def test_text_roundtrip(self):
        cells = np.full((3, 3), np.nan)
        cells[0, 1], cells[0, 2], cells[1, 2] = 0.25, 0.5, 0.875
        m = AccuracyMatrix(cells=cells, protocol=ProtocolKind.STREAMING)
        text = matrix_to_text(m)
        assert text.splitlines()[0] == "N=3 protocol=streaming"
        assert text.splitlines()[1] == "NA,0.250000,0.500000"
        back = matrix_from_text(text)
        assert back.protocol is ProtocolKind.STREAMING
        assert np.allclose(back.cells[0, 1:], [0.25, 0.5])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("N=2 protocol=iid extra\n0.5,0.5\n0.5,0.5\n", "bad matrix header"),
            ("N=2 protocol=iid\n0.5,0.5\n0.5,high\n", r"row 1, column 1: bad cell 'high'"),
        ],
    )
    def test_malformed_text_named(self, text, message):
        with pytest.raises(ValueError, match=message):
            matrix_from_text(text)


class TestEvaluate:
    def test_perfect_learner(self):
        stream = small_stream()
        cfg = config_for(stream)
        state = strategy_step(
            Strategy.FROM_SCRATCH, None, 0, stream.buckets[0].samples,
            Hyperparams(learning_rate=1.0, epochs=30, decay_epoch=20, batch_size=32),
            cfg.architecture,
        )
        acc = evaluate(state, stream.buckets[0].samples)
        assert acc > 0.9

    def test_counting(self):
        arch = Architecture("linear", 2, 2)
        state = init_learner(arch, seed=0)
        params = {k: np.zeros_like(v) for k, v in state.params.items()}
        params["w"][:] = np.eye(2)
        from driftbench.learner import LearnerState

        state = LearnerState(arch, params, state.velocity)
        samples = [
            Sample(id=0, timestamp=0, features=np.array([1.0, 0.0]), label=0),  # right
            Sample(id=1, timestamp=0, features=np.array([1.0, 0.0]), label=1),  # wrong
            Sample(id=2, timestamp=0, features=np.array([0.0, 1.0]), label=0),  # wrong
            Sample(id=3, timestamp=0, features=np.array([0.0, 1.0]), label=0),  # wrong
        ]
        assert evaluate(state, samples) == 0.25

    def test_zero_init_matches_base_rate(self):
        # Zero-initialized learner always predicts class 0; accuracy on uniform
        # random labels concentrates at 1/C within 3*sqrt(1/(4n)).
        rng = np.random.default_rng(0)
        n, c = 4000, 5
        samples = [
            Sample(id=i, timestamp=0, features=rng.standard_normal(3), label=int(rng.integers(0, c)))
            for i in range(n)
        ]
        arch = Architecture("linear", 3, c)
        state = init_learner(arch, seed=0)
        from driftbench.learner import LearnerState

        zero = LearnerState(arch, {k: np.zeros_like(v) for k, v in state.params.items()}, state.velocity)
        acc = evaluate(zero, samples)
        assert abs(acc - 1 / c) <= 3 * math.sqrt(1 / (4 * n))

    def test_empty_rejected(self):
        state = init_learner(Architecture("linear", 2, 2), seed=0)
        with pytest.raises(ValueError):
            evaluate(state, [])


class TestGroupedScoring:
    @pytest.mark.parametrize("kind", [ProtocolKind.IID, ProtocolKind.STREAMING])
    def test_cells_equal_evaluate_across_scoring_groups(self, kind, monkeypatch):
        # With a 20-row budget each step's targets split into several scoring
        # groups, and the 40-sample bucket (28-sample iid test set) exceeds it.
        monkeypatch.setattr(protocol_module, "SCORE_BATCH_ROWS", 20, raising=False)
        states = []

        def recording_step(*args):
            states.append(strategy_step(*args))
            return states[-1]

        monkeypatch.setattr(protocol_module, "strategy_step", recording_step)
        base = small_stream(N=8, n_per_class=20)
        sizes = (12, 5, 6, 40, 4, 7, 8, 30)
        stream = TemporalStream(
            buckets=tuple(Bucket(b.index, b.samples[:k]) for b, k in zip(base.buckets, sizes)),
            d=base.d, C=base.C, dropped=0,
        )
        seed = 3
        if kind is ProtocolKind.IID:
            matrix = run_iid_protocol(stream, config_for(stream, capacity=20, fraction=0.3), seed)
            targets = [
                split_iid(b, 0.3, seed + SPLIT_SEED_OFFSET + b.index)[1] for b in stream.buckets
            ]
        else:
            matrix = run_streaming_protocol(stream, config_for(stream, capacity=20, fraction=None), seed)
            targets = [b.samples for b in stream.buckets]
        assert len(states) == stream.n_buckets
        rows, cols = np.nonzero(~np.isnan(matrix.cells))
        assert len(rows) == (64 if kind is ProtocolKind.IID else 28)
        for i, j in zip(rows, cols):
            assert matrix.cells[i, j] == evaluate(states[i], targets[j])


class TestIidProtocol:
    def test_napping_rows_identical(self):
        stream = small_stream()
        cfg = config_for(stream, strategy=Strategy.NAPPING)
        matrix = run_iid_protocol(stream, cfg, seed=0)
        for i in range(1, matrix.n):
            assert np.array_equal(matrix.cells[i], matrix.cells[0])

    def test_napping_trains_on_first_train_split(self):
        stream = small_stream()
        cfg = config_for(stream, strategy=Strategy.NAPPING)
        seed = 2
        matrix = run_iid_protocol(stream, cfg, seed=seed)
        tr0, _ = split_iid(stream.buckets[0], cfg.train_fraction, seed + SPLIT_SEED_OFFSET)
        hp = Hyperparams(**{**HP_FAST.__dict__, "seed": seed + LEARNER_SEED_OFFSET})
        frozen = strategy_step(Strategy.NAPPING, None, 0, tr0, hp, cfg.architecture)
        for j in range(matrix.n):
            _, te = split_iid(stream.buckets[j], cfg.train_fraction, seed + SPLIT_SEED_OFFSET + j)
            assert matrix.cells[0, j] == evaluate(frozen, te)

    def test_diagonal_beats_superdiagonal_under_drift(self):
        stream = small_stream(drift_rate=math.pi / 16, N=6, n_per_class=80)
        cfg = config_for(stream, capacity=int(0.7 * len(stream.buckets[0])) + 1)
        reports = [compute_metrics(run_iid_protocol(stream, cfg, seed=s)) for s in range(5)]
        agg = aggregate(reports)
        assert agg.means["in_domain"] > agg.means["next_domain"]

    def test_duplicated_bucket_exchangeable(self):
        # Bucket 2 duplicates bucket 1's content: R11 and R12 agree within 2%.
        base = generate_drift_stream(
            DriftConfig(C=3, d=4, N=1, n_per_class=120, radius=1.0, drift_rate=0.0, noise=0.5, seed=5)
        )
        b1 = base.buckets[0]
        dup = Bucket(
            1,
            tuple(
                Sample(id=s.id + len(b1), timestamp=1, features=s.features, label=s.label)
                for s in b1.samples
            ),
        )
        stream = TemporalStream(buckets=(b1, dup), d=4, C=3, dropped=0)
        cfg = config_for(stream, capacity=252)
        r11, r12 = [], []
        for seed in range(5):
            m = run_iid_protocol(stream, cfg, seed=seed)
            r11.append(m.cells[0, 0])
            r12.append(m.cells[0, 1])
        assert abs(np.mean(r11) - np.mean(r12)) <= 0.02

    def test_test_sets_never_trained_on(self):
        # Splits are reconstructable from the seed; train ids and test ids are disjoint.
        stream = small_stream()
        cfg = config_for(stream)
        seed = 3
        run_iid_protocol(stream, cfg, seed=seed)
        train_ids, test_ids = set(), set()
        for b in stream.buckets:
            tr, te = split_iid(b, cfg.train_fraction, seed + SPLIT_SEED_OFFSET + b.index)
            train_ids |= {s.id for s in tr}
            test_ids |= {s.id for s in te}
        assert not (train_ids & test_ids)

    def test_deterministic(self):
        stream = small_stream()
        cfg = config_for(stream)
        a = run_iid_protocol(stream, cfg, seed=7)
        b = run_iid_protocol(stream, cfg, seed=7)
        assert np.array_equal(a.cells, b.cells)

    def test_requires_fraction_and_two_buckets(self):
        stream = small_stream()
        cfg = config_for(stream, fraction=None)
        with pytest.raises(ValueError):
            run_iid_protocol(stream, cfg, seed=0)
        single = TemporalStream(buckets=stream.buckets[:1], d=stream.d, C=stream.C, dropped=0)
        with pytest.raises(ValueError):
            run_iid_protocol(single, config_for(stream), seed=0)


class TestStreamingProtocol:
    def test_n2_has_single_cell(self):
        stream = small_stream(N=2)
        cfg = config_for(stream, fraction=None)
        matrix = run_streaming_protocol(stream, cfg, seed=0)
        present = ~np.isnan(matrix.cells)
        assert present.sum() == 1 and present[0, 1]

    def test_fifo_one_bucket_buffer_trains_on_current_bucket(self):
        # Dynamic c=1.0 with k = |bucket|: h_i is trained exactly on S_i.
        stream = small_stream(N=3)
        cfg = config_for(stream, fraction=None, alpha="dynamic")
        matrix = run_streaming_protocol(stream, cfg, seed=4)
        prev = None
        expected = np.full((3, 3), np.nan)
        for i, bucket in enumerate(stream.buckets):
            hp = Hyperparams(**{**HP_FAST.__dict__, "seed": 4 + LEARNER_SEED_OFFSET + i})
            prev = strategy_step(cfg.strategy, prev, i, bucket.samples, hp, cfg.architecture)
            for j in range(i + 1, 3):
                expected[i, j] = evaluate(prev, stream.buckets[j].samples)
        assert np.array_equal(np.nan_to_num(matrix.cells), np.nan_to_num(expected))

    def test_stationary_matches_iid_in_domain(self):
        stream = small_stream(N=5, n_per_class=100)
        iid_cfg = config_for(stream, capacity=int(0.7 * len(stream.buckets[0])) + 1)
        str_cfg = config_for(stream, fraction=None)
        iid_in = aggregate(
            [compute_metrics(run_iid_protocol(stream, iid_cfg, s)) for s in range(5)]
        ).means["in_domain"]
        str_nd = aggregate(
            [compute_metrics(run_streaming_protocol(stream, str_cfg, s)) for s in range(5)]
        ).means["next_domain"]
        assert abs(iid_in - str_nd) <= 0.02

    def test_event_ordering_audited(self):
        stream = small_stream()
        cfg = config_for(stream, fraction=None)
        events: list[Event] = []
        run_streaming_protocol(stream, cfg, seed=0, event_log=events)
        audit_streaming_order(events)
        # every evaluation of bucket j sits before the train event on bucket j
        train_pos = {e.bucket: i for i, e in enumerate(events) if e.kind == "train"}
        for pos, e in enumerate(events):
            if e.kind == "evaluate":
                assert pos < train_pos[e.bucket]

    def test_reused_event_log_rejected(self):
        stream = small_stream(N=3)
        cfg = config_for(stream, fraction=None)
        events: list[Event] = []
        run_streaming_protocol(stream, cfg, seed=0, event_log=events)
        with pytest.raises(ProtocolOrderError, match="bucket 1 has 2 of 1 required evaluations"):
            run_streaming_protocol(stream, cfg, seed=0, event_log=events)

    def test_audit_flags_violations(self):
        bad = [
            Event("train", 0, 0),
            Event("evaluate", 0, 1),
            Event("train", 1, 1),
            Event("evaluate", 1, 1),
        ]
        with pytest.raises(ProtocolOrderError):
            audit_streaming_order(bad)

    def test_event_log_roundtrip(self):
        stream = small_stream(N=2)
        cfg = config_for(stream, fraction=None)
        events: list[Event] = []
        run_streaming_protocol(stream, cfg, seed=0, event_log=events)
        text = event_log_text(ProtocolKind.STREAMING, events)
        protocol, parsed = parse_event_log(text)
        assert protocol is ProtocolKind.STREAMING
        assert parsed == events

    @pytest.mark.parametrize(
        "body, message",
        [
            ("evalute\t0\t1", r"line 3: unknown event kind 'evalute'"),
            ("evaluate\t0", "line 3: expected 3 tab-separated fields, got 2"),
            ("evaluate\t0\tone", "line 3: step and bucket must be integers"),
        ],
    )
    def test_malformed_event_log_named(self, body, message):
        with pytest.raises(ValueError, match=message):
            parse_event_log(f"protocol=streaming\ntrain\t0\t0\n{body}\n")

    def test_napping_trains_on_full_first_bucket(self):
        stream = small_stream(N=3)
        cfg = config_for(stream, strategy=Strategy.NAPPING, fraction=None, capacity=10)
        seed = 6
        matrix = run_streaming_protocol(stream, cfg, seed=seed)
        hp = Hyperparams(**{**HP_FAST.__dict__, "seed": seed + LEARNER_SEED_OFFSET})
        frozen = strategy_step(
            Strategy.NAPPING, None, 0, stream.buckets[0].samples, hp, cfg.architecture
        )
        for j in (1, 2):
            assert matrix.cells[0, j] == evaluate(frozen, stream.buckets[j].samples)

    def test_matrix_cells_pure_across_evaluation_order(self):
        stream = small_stream(N=3)
        cfg = config_for(stream, fraction=None)
        state = strategy_step(
            Strategy.FROM_SCRATCH, None, 0, stream.buckets[0].samples, HP_FAST, cfg.architecture
        )
        forward = [evaluate(state, b.samples) for b in stream.buckets]
        backward = [evaluate(state, b.samples) for b in reversed(stream.buckets)]
        assert forward == backward[::-1]


class TestStrategyComparisons:
    def test_stationary_finetuning_matches_from_scratch(self):
        # delta = 0: the two strategies are statistically indistinguishable in-domain.
        stream = small_stream(N=5, n_per_class=100)
        capacity = int(0.7 * len(stream.buckets[0])) + 1
        means = {}
        for strategy in (Strategy.FINETUNING, Strategy.FROM_SCRATCH):
            cfg = config_for(stream, strategy=strategy, capacity=capacity)
            agg = aggregate([compute_metrics(run_iid_protocol(stream, cfg, s)) for s in range(5)])
            means[strategy] = agg.means["in_domain"]
        assert abs(means[Strategy.FINETUNING] - means[Strategy.FROM_SCRATCH]) <= 0.01

    def test_drift_finetuning_reaches_from_scratch_next_domain(self):
        # Scarce-data drifting regime: warm starts must not lose to fresh inits.
        stream = small_stream(drift_rate=math.pi / 20, C=4, d=8, N=6, n_per_class=100, seed=2024)
        hp = Hyperparams(learning_rate=0.1, batch_size=32, epochs=20, decay_epoch=12)
        means = {}
        for strategy in (Strategy.FINETUNING, Strategy.FROM_SCRATCH):
            cfg = config_for(stream, strategy=strategy, capacity=24, fraction=None, hp=hp,
                             alpha="dynamic")
            agg = aggregate(
                [compute_metrics(run_streaming_protocol(stream, cfg, s)) for s in range(5)]
            )
            means[strategy] = agg.means["next_domain"]
        assert means[Strategy.FINETUNING] >= means[Strategy.FROM_SCRATCH]


class TestDesiderata:
    def test_shared_output_head(self):
        # One label space across all timestamps: parameter shapes never change.
        stream = small_stream()
        cfg = config_for(stream, fraction=None)
        events: list[Event] = []
        run_streaming_protocol(stream, cfg, seed=0, event_log=events)
        assert cfg.architecture.C == stream.C

    def test_predict_takes_no_task_identity(self):
        params = inspect.signature(predict).parameters
        assert list(params) == ["state", "features"]

    def test_more_than_two_buckets_supported(self):
        stream = small_stream(N=5)
        cfg = config_for(stream, fraction=None)
        matrix = run_streaming_protocol(stream, cfg, seed=0)
        assert matrix.n == 5

    def test_streaming_tests_strictly_in_future(self):
        stream = small_stream(N=4)
        cfg = config_for(stream, fraction=None)
        events: list[Event] = []
        run_streaming_protocol(stream, cfg, seed=0, event_log=events)
        steps = {}
        for e in events:
            if e.kind == "train":
                steps[e.step] = e.bucket
        for e in events:
            if e.kind == "evaluate":
                assert e.bucket > e.step
