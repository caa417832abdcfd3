import math

import numpy as np
import pytest

import driftbench.corpus as corpus_module
from driftbench.corpus import (
    DriftConfig,
    FeatureFileError,
    Sample,
    as_arrays,
    atomic_write,
    bucket_shape,
    bucketize,
    class_means,
    generate_drift_stream,
    load_feature_file,
    read_feature_header,
    split_iid,
    stream_manifest,
    write_feature_file,
)


def make_samples(n, timestamps=None, d=3, labels=None):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((n, d))
    return [
        Sample(
            id=i,
            timestamp=timestamps[i] if timestamps else i,
            features=feats[i],
            label=labels[i] if labels else 0,
        )
        for i in range(n)
    ]


def bucket_rows(stream, t):
    return slice(stream.offsets[t], stream.offsets[t + 1])


def bucket_sizes(stream):
    return np.diff(stream.offsets).tolist()


def stream_samples(stream):
    return [
        Sample(id=int(i), timestamp=int(ts), features=f, label=int(c))
        for i, ts, f, c in zip(stream.ids, stream.timestamps, stream.x, stream.y)
    ]


class TestBucketize:
    def test_single_bucket_identity(self):
        stream = bucketize(make_samples(1000), 1)
        assert stream.n_buckets == 1
        assert bucket_sizes(stream) == [1000]
        assert stream.dropped == 0

    def test_1000_into_11(self):
        stream = bucketize(make_samples(1000), 11)
        assert bucket_sizes(stream) == [90] * 11
        assert stream.dropped == 10

    def test_sizes_sum_plus_dropped(self):
        for n, k in [(57, 7), (100, 9), (12, 12)]:
            stream = bucketize(make_samples(n), k)
            assert sum(bucket_sizes(stream)) + stream.dropped == n
            assert len(set(bucket_sizes(stream))) == 1
            assert len(stream.x) == len(stream.y) == len(stream.ids) == stream.offsets[-1]

    def test_multimillion_sample_arithmetic(self):
        # 7,850,000 into 11 equal buckets under the floor rule.
        assert bucket_shape(7_850_000, 11) == (713_636, 4)

    def test_time_ordering_and_tie_break(self):
        # All equal timestamps: order within buckets must be ascending id.
        samples = make_samples(20, timestamps=[0] * 20)
        samples.reverse()
        stream = bucketize(samples, 4)
        ids = stream.ids.tolist()
        assert ids == sorted(ids)

    def test_rows_follow_their_samples(self):
        samples = make_samples(12, timestamps=[5, 3, 9, 3, 0, 7, 7, 1, 2, 8, 4, 6], labels=[0, 1] * 6)
        stream = bucketize(samples, 4)
        by_id = {s.id: s for s in samples}
        for row, sid in enumerate(stream.ids.tolist()):
            assert np.array_equal(stream.x[row], by_id[sid].features)
            assert stream.y[row] == by_id[sid].label
            assert stream.timestamps[row] == by_id[sid].timestamp

    def test_bucket_boundaries_monotone(self):
        rng = np.random.default_rng(3)
        ts = [int(t) for t in rng.integers(0, 50, size=60)]
        stream = bucketize(make_samples(60, timestamps=ts), 5)
        for t in range(stream.n_buckets - 1):
            earlier = stream.timestamps[bucket_rows(stream, t)]
            later = stream.timestamps[bucket_rows(stream, t + 1)]
            assert earlier.max() <= later.min()

    def test_errors(self):
        with pytest.raises(ValueError):
            bucketize(make_samples(5), 0)
        with pytest.raises(ValueError):
            bucketize(make_samples(3), 4)

    def test_duplicate_ids_rejected(self):
        samples = make_samples(4)
        samples[2] = Sample(id=0, timestamp=2, features=samples[2].features, label=0)
        with pytest.raises(ValueError, match="unique"):
            bucketize(samples, 2)

    def test_mixed_dimensions_rejected(self):
        samples = make_samples(4)
        samples[3] = Sample(id=3, timestamp=3, features=np.zeros(2), label=0)
        with pytest.raises(ValueError, match="sample 3: expected dimension 3"):
            bucketize(samples, 2)

    def test_pure(self):
        samples = make_samples(30)
        a = bucketize(samples, 3)
        b = bucketize(samples, 3)
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.x, b.x)


class TestSplitIid:
    def test_seventy_thirty_split_sizes(self):
        train, test = split_iid(np.arange(3300), 0.7, seed=1)
        assert (len(train), len(test)) == (2310, 990)

    def test_partition_property(self):
        rows = np.arange(10, 20)
        train, test = split_iid(rows, 0.5, seed=9)
        assert len(train) == 5 and len(test) == 5
        assert set(train.tolist()) | set(test.tolist()) == set(rows.tolist())
        assert not (set(train.tolist()) & set(test.tolist()))

    def test_determinism(self):
        rows = np.arange(40)
        first = split_iid(rows, 0.7, seed=123)
        second = split_iid(rows, 0.7, seed=123)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_errors(self):
        rows = np.arange(4)
        with pytest.raises(ValueError):
            split_iid(rows, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_iid(rows, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_iid(np.arange(0), 0.5, seed=0)
        with pytest.raises(ValueError, match="leaves no test rows"):
            split_iid(rows, 0.9, seed=0)


def per_sample_reference(cfg):
    """The stream built one Sample at a time, as the generator did before it built arrays."""
    rng = np.random.default_rng(cfg.seed)
    samples, next_id = [], 0
    for t in range(cfg.N):
        means = class_means(cfg, t)
        noise = rng.standard_normal((cfg.C, cfg.n_per_class, cfg.d)) * cfg.noise
        points = [(c, means[c] + noise[c, j]) for c in range(cfg.C) for j in range(cfg.n_per_class)]
        for pos in rng.permutation(len(points)):
            label, features = points[pos]
            samples.append(Sample(id=next_id, timestamp=t, features=features, label=label))
            next_id += 1
    return samples


class TestDriftStream:
    def test_shapes_and_labels(self):
        cfg = DriftConfig(C=3, d=4, N=5, n_per_class=7, radius=1.0, drift_rate=0.1, noise=0.2, seed=0)
        stream = generate_drift_stream(cfg)
        assert stream.n_buckets == 5 and stream.d == 4 and stream.C == 3
        assert stream.x.shape == (105, 4)
        assert bucket_sizes(stream) == [21] * 5
        for t in range(stream.n_buckets):
            assert sorted(set(stream.y[bucket_rows(stream, t)].tolist())) == [0, 1, 2]

    @pytest.mark.parametrize("drift_rate, seed", [(0.0, 4), (0.3, 2), (math.pi / 7, 31)])
    def test_matches_per_sample_reference(self, drift_rate, seed):
        cfg = DriftConfig(C=3, d=5, N=4, n_per_class=6, radius=1.5, drift_rate=drift_rate,
                          noise=0.3, seed=seed)
        stream = generate_drift_stream(cfg)
        reference = per_sample_reference(cfg)
        assert np.array_equal(stream.x, np.stack([s.features for s in reference]))
        assert stream.y.tolist() == [s.label for s in reference]
        assert stream.ids.tolist() == [s.id for s in reference]
        assert stream.timestamps.tolist() == [s.timestamp for s in reference]
        assert stream.offsets.tolist() == [0, 18, 36, 54, 72] and stream.dropped == 0

    def test_deterministic(self):
        cfg = DriftConfig(C=2, d=3, N=3, n_per_class=5, radius=1.0, drift_rate=0.0, noise=0.1, seed=4)
        a = generate_drift_stream(cfg)
        b = generate_drift_stream(cfg)
        for field in ("x", "y", "ids", "timestamps", "offsets"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_bucketize_roundtrip(self):
        cfg = DriftConfig(C=2, d=2, N=4, n_per_class=6, radius=1.0, drift_rate=0.3, noise=0.1, seed=2)
        stream = generate_drift_stream(cfg)
        again = bucketize(stream_samples(stream), cfg.N)
        for field in ("x", "y", "ids", "timestamps", "offsets"):
            assert np.array_equal(getattr(stream, field), getattr(again, field))

    def test_stationary_means_agree(self):
        # delta = 0: first- and last-bucket class means differ by < 4*sigma/sqrt(n) per coordinate.
        cfg = DriftConfig(C=3, d=4, N=6, n_per_class=400, radius=1.0, drift_rate=0.0, noise=0.25, seed=11)
        stream = generate_drift_stream(cfg)
        bound = 4 * cfg.noise / math.sqrt(cfg.n_per_class)
        x_first, y_first = stream.x[bucket_rows(stream, 0)], stream.y[bucket_rows(stream, 0)]
        x_last, y_last = stream.x[bucket_rows(stream, cfg.N - 1)], stream.y[bucket_rows(stream, cfg.N - 1)]
        for c in range(cfg.C):
            first = x_first[y_first == c].mean(axis=0)
            last = x_last[y_last == c].mean(axis=0)
            assert np.all(np.abs(first - last) < bound)

    def test_rotated_means(self):
        # delta = pi/N: bucket N-1 means sit at angles rotated by pi*(N-1)/N,
        # and sample means land within 3*sigma/sqrt(n) of them per coordinate.
        n = 400
        cfg = DriftConfig(C=2, d=3, N=5, n_per_class=n, radius=1.0,
                          drift_rate=math.pi / 5, noise=0.2, seed=21)
        stream = generate_drift_stream(cfg)
        bound = 3 * cfg.noise / math.sqrt(n)
        for t in (0, cfg.N - 1):
            means = class_means(cfg, t)
            x, y = stream.x[bucket_rows(stream, t)], stream.y[bucket_rows(stream, t)]
            for c in range(cfg.C):
                angle = 2 * math.pi * c / cfg.C + t * cfg.drift_rate
                expected = np.array([math.cos(angle), math.sin(angle), 0.0])
                assert np.allclose(means[c], expected, atol=1e-12)
                sample_mean = x[y == c].mean(axis=0)
                assert np.all(np.abs(sample_mean - means[c]) < bound)

    def test_bayes_accuracy_against_frozen_oracle(self):
        # Frozen Monte-Carlo oracle (1e6 draws): optimal-separator accuracy = 1.0
        # for radius/sigma = 10; a 1e5-draw stream must match it exactly.
        cfg = DriftConfig(C=2, d=2, N=1, n_per_class=50_000, radius=1.0,
                          drift_rate=0.0, noise=0.1, seed=99)
        stream = generate_drift_stream(cfg)
        x, y = stream.x[bucket_rows(stream, 0)], stream.y[bucket_rows(stream, 0)]
        means = class_means(cfg, 0)
        pred = (x @ (means[0] - means[1]) < 0).astype(int)
        assert float((pred == y).mean()) == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(C=0, d=2, N=1, n_per_class=1, radius=1, drift_rate=0, noise=1, seed=0)
        with pytest.raises(ValueError):
            DriftConfig(C=1, d=1, N=1, n_per_class=1, radius=1, drift_rate=0, noise=1, seed=0)
        with pytest.raises(ValueError):
            DriftConfig(C=1, d=2, N=1, n_per_class=1, radius=0, drift_rate=0, noise=1, seed=0)
        with pytest.raises(ValueError):
            DriftConfig(C=1, d=2, N=1, n_per_class=1, radius=1, drift_rate=-0.1, noise=1, seed=0)


class TestFeatureFile:
    def write(self, tmp_path, text):
        p = tmp_path / "features.tsv"
        p.write_text(text)
        return p

    def test_roundtrip(self, tmp_path):
        samples = make_samples(3, d=4, labels=[0, 1, 2])
        path = tmp_path / "f.tsv"
        write_feature_file(path, samples, d=4, C=3)
        assert read_feature_header(path) == (4, 3)
        loaded = load_feature_file(path)
        assert len(loaded) == 3
        for orig, got in zip(samples, loaded):
            assert got.id == orig.id and got.label == orig.label
            assert np.array_equal(got.features, orig.features)

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = self.write(tmp_path, "#d=4 C=2\n0\t0\t0\t1.0,2.0,3.0\n")
        with pytest.raises(FeatureFileError, match=":2"):
            load_feature_file(p)

    def test_normalize(self, tmp_path):
        p = self.write(tmp_path, "#d=2 C=1\n0\t0\t0\t3.0,4.0\n")
        (sample,) = load_feature_file(p, normalize=True)
        assert np.allclose(sample.features, [0.6, 0.8])

    def test_normalize_rejects_zero_vector(self, tmp_path):
        p = self.write(tmp_path, "#d=2 C=1\n0\t0\t0\t0.0,0.0\n")
        with pytest.raises(FeatureFileError, match="zero vector"):
            load_feature_file(p, normalize=True)

    def test_normalize_rejects_overflowing_squared_norm(self, tmp_path):
        p = self.write(tmp_path, "#d=2 C=1\n0\t0\t0\t3.0,4.0\n1\t0\t0\t1e200,-1e200\n")
        with pytest.raises(FeatureFileError, match=r":3: squared norm overflows"):
            load_feature_file(p, normalize=True)
        assert load_feature_file(p)[1].features.tolist() == [1e200, -1e200]

    def test_non_finite_rejected(self, tmp_path):
        p = self.write(tmp_path, "#d=2 C=1\n0\t0\t0\t1.0,nan\n")
        with pytest.raises(FeatureFileError, match="non-finite"):
            load_feature_file(p)

    def test_missing_header(self, tmp_path):
        p = self.write(tmp_path, "0\t0\t0\t1.0\n")
        with pytest.raises(FeatureFileError, match="header"):
            load_feature_file(p)

    def test_label_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "#d=1 C=2\n0\t0\t5\t1.0\n")
        with pytest.raises(FeatureFileError, match="label"):
            load_feature_file(p)


    @pytest.mark.parametrize("normalize", [False, True])
    def test_well_formed_file_is_read_as_arrays(self, tmp_path, monkeypatch, normalize):
        # A silent fallback to the line-by-line reader would keep results and lose the speed.
        path = tmp_path / "f.tsv"
        write_feature_file(path, make_samples(40, d=5, labels=[i % 3 for i in range(40)]), d=5, C=3)
        expected = corpus_module._load_feature_lines(str(path), normalize)

        def no_fallback(path, normalize):
            raise AssertionError(f"{path} fell back to the line-by-line reader")

        monkeypatch.setattr(corpus_module, "_load_feature_lines", no_fallback)
        loaded = load_feature_file(path, normalize=normalize)
        assert [(s.id, s.timestamp, s.label) for s in loaded] == [
            (s.id, s.timestamp, s.label) for s in expected
        ]
        assert as_arrays(loaded)[0].tobytes() == as_arrays(expected)[0].tobytes()
        path.write_text("#d=5 C=3\n\n")
        assert load_feature_file(path, normalize=normalize) == []


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_old_file_or_none(self, tmp_path, existing):
        path = tmp_path / "features.tsv"
        if existing:
            path.write_text("old\n")
        samples = make_samples(3, d=2)
        samples.insert(2, Sample(id=9, timestamp=0, features=np.array(["x"], dtype=object), label=0))
        with pytest.raises(ValueError):
            write_feature_file(path, samples, d=2, C=1)
        assert list(tmp_path.iterdir()) == ([path] if existing else [])
        if existing:
            assert path.read_text() == "old\n"

    def test_block_error_leaves_old_file(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError), atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "old\n"
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "new\n"


def test_stream_manifest_format():
    cfg = DriftConfig(C=2, d=2, N=3, n_per_class=4, radius=1.0, drift_rate=0.0, noise=0.1, seed=0)
    stream = generate_drift_stream(cfg)
    lines = stream_manifest(stream).strip().splitlines()
    assert lines == ["0\t0\t0\t8", "1\t1\t1\t8", "2\t2\t2\t8"]
