import math
import os
import re
import signal
import tempfile
import time

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
    read_feature_file,
    split_iid,
    stream_manifest,
    write_feature_file,
)
from driftbench.curate import (CurationSpec, EmbeddingFileError, load_embedding_file, load_query_file,
                               score_embedding_file)
from line_readers import load_feature_lines


def make_rows(n, timestamps=None, d=3, labels=None):
    """``(ids, timestamps, x, y)`` for ``n`` rows with ids ``0..n-1``, in that order."""
    x = np.random.default_rng(0).standard_normal((n, d))
    ts = np.array(timestamps if timestamps else range(n), dtype=np.int64)
    y = np.array(labels if labels else [0] * n, dtype=np.int64)
    return np.arange(n), ts, x, y


def bucket_rows(stream, t):
    return slice(stream.offsets[t], stream.offsets[t + 1])


def bucket_sizes(stream):
    return np.diff(stream.offsets).tolist()


class TestBucketize:
    def test_single_bucket_identity(self):
        stream = bucketize(*make_rows(1000), 1, C=1)
        assert stream.n_buckets == 1
        assert bucket_sizes(stream) == [1000]
        assert stream.dropped == 0

    def test_1000_into_11(self):
        stream = bucketize(*make_rows(1000), 11, C=1)
        assert bucket_sizes(stream) == [90] * 11
        assert stream.dropped == 10

    def test_sizes_sum_plus_dropped(self):
        for n, k in [(57, 7), (100, 9), (12, 12)]:
            stream = bucketize(*make_rows(n), k, C=1)
            assert sum(bucket_sizes(stream)) + stream.dropped == n
            assert len(set(bucket_sizes(stream))) == 1
            assert len(stream.x) == len(stream.y) == len(stream.ids) == stream.offsets[-1]

    def test_multimillion_sample_arithmetic(self):
        # 7,850,000 into 11 equal buckets under the floor rule.
        assert bucket_shape(7_850_000, 11) == (713_636, 4)

    def test_time_ordering_and_tie_break(self):
        # All equal timestamps: order within buckets must be ascending id.
        ids, ts, x, y = make_rows(20, timestamps=[0] * 20)
        stream = bucketize(ids[::-1], ts, x[::-1], y, 4, C=1)
        ids = stream.ids.tolist()
        assert ids == sorted(ids)

    def test_rows_follow_their_samples(self):
        ids, ts, x, y = make_rows(12, timestamps=[5, 3, 9, 3, 0, 7, 7, 1, 2, 8, 4, 6], labels=[0, 1] * 6)
        stream = bucketize(ids, ts, x, y, 4, C=2)
        for row, sid in enumerate(stream.ids.tolist()):
            assert np.array_equal(stream.x[row], x[sid])
            assert stream.y[row] == y[sid]
            assert stream.timestamps[row] == ts[sid]

    def test_bucket_boundaries_monotone(self):
        rng = np.random.default_rng(3)
        ts = [int(t) for t in rng.integers(0, 50, size=60)]
        stream = bucketize(*make_rows(60, timestamps=ts), 5, C=1)
        for t in range(stream.n_buckets - 1):
            earlier = stream.timestamps[bucket_rows(stream, t)]
            later = stream.timestamps[bucket_rows(stream, t + 1)]
            assert earlier.max() <= later.min()

    def test_errors(self):
        with pytest.raises(ValueError):
            bucketize(*make_rows(5), 0, C=1)
        with pytest.raises(ValueError):
            bucketize(*make_rows(3), 4, C=1)
        with pytest.raises(ValueError, match="label 2 out of range for class_count=2"):
            bucketize(*make_rows(4, labels=[0, 2, 1, 0]), 2, C=2)

    def test_a_negative_label_is_rejected(self):
        # Unchecked, fit trains label -1 as class C - 1.
        with pytest.raises(ValueError, match="^label -1 out of range for class_count=3$"):
            bucketize(*make_rows(4, labels=[0, 2, -1, 1]), 2, C=3)

    def test_duplicate_ids_rejected(self):
        ids, ts, x, y = make_rows(4)
        ids[2] = 0
        with pytest.raises(ValueError, match="unique"):
            bucketize(ids, ts, x, y, 2, C=1)

    def test_pure(self):
        rows = make_rows(30)
        a = bucketize(*rows, 3, C=1)
        b = bucketize(*rows, 3, C=1)
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("timestamps", [[0] * 31, [i // 4 for i in range(31)]])
    def test_rows_in_order_are_sliced_not_copied(self, timestamps):
        ids, ts, x, y = make_rows(31, timestamps=timestamps)
        stream = bucketize(ids, ts, x, y, 3, C=1)
        for got, arg in ((stream.x, x), (stream.y, y), (stream.ids, ids), (stream.timestamps, ts)):
            assert np.shares_memory(got, arg) and np.array_equal(got, arg[:30])
        # The same rows in another order are gathered into the same stream.
        order = np.random.default_rng(1).permutation(31)
        shuffled = bucketize(ids[order], ts[order], x[order], y[order], 3, C=1)
        assert not np.shares_memory(shuffled.x, x[order])
        assert shuffled.x.tobytes() == stream.x.tobytes() and np.array_equal(shuffled.ids, stream.ids)

    def test_a_later_id_in_an_earlier_timestamp_is_gathered(self):
        ids, ts, x, y = make_rows(4, timestamps=[0, 0, 1, 1])
        ids = np.array([0, 5, 1, 2])
        stream = bucketize(ids, ts, x, y, 1, C=1)
        assert stream.ids.tolist() == [0, 5, 1, 2] and np.shares_memory(stream.x, x)
        stream = bucketize(ids[[1, 0, 2, 3]], ts, x, y, 1, C=1)
        assert stream.ids.tolist() == [0, 5, 1, 2] and not np.shares_memory(stream.x, x)


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
        again = bucketize(stream.ids, stream.timestamps, stream.x, stream.y, cfg.N, cfg.C)
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
        ids, ts, x, y = make_rows(3, d=4, labels=[0, 1, 2])
        path = tmp_path / "f.tsv"
        write_feature_file(path, ids, ts, y, x, np.arange(len(x)), C=3)
        assert path.read_text().startswith("#d=4 C=3\n")
        *arrays, c = read_feature_file(path)
        assert c == 3
        for got, want in zip(arrays, (ids, ts, y, x)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        loaded = load_feature_file(path)
        assert [(s.id, s.timestamp, s.label) for s in loaded] == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert as_arrays(loaded)[0].tobytes() == x.tobytes()

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

    @pytest.mark.parametrize("record", [f"{2**70}\t0\t0\t1.0", f"1\t{-2**63 - 1}\t0\t1.0"])
    def test_integer_beyond_int64_names_line(self, tmp_path, record):
        p = self.write(tmp_path, f"#d=1 C=1\n0\t0\t0\t1.0\n{record}\n")
        with pytest.raises(FeatureFileError, match=r"features\.tsv:3: integer -?\d+ outside the int64 range"):
            read_feature_file(p)
        p = self.write(tmp_path, f"#d=1 C=1\n{2**63 - 1}\t{-2**63}\t0\t1.0\n")
        ids, ts, *_ = read_feature_file(p)
        assert ids.tolist() == [2**63 - 1] and ts.tolist() == [-2**63] and ts.dtype == np.int64

    def test_label_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "#d=1 C=2\n0\t0\t5\t1.0\n")
        with pytest.raises(FeatureFileError, match="label"):
            load_feature_file(p)

    @pytest.mark.parametrize("line", [1, 3])
    def test_a_byte_that_is_not_utf8_is_named_by_its_line(self, tmp_path, line):
        lines = [b"#d=2 C=1", b"0\t0\t0\t1.0,2.0", b"1\t0\t0\t3.0,4.0"]
        lines[line - 1] = lines[line - 1][:4] + b"\xff" + lines[line - 1][4:]
        p = tmp_path / "features.tsv"
        p.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FeatureFileError, match=rf"features\.tsv:{line}: 'utf-8' codec can't decode byte 0xff"):
            read_feature_file(p)


    @pytest.mark.parametrize("normalize", [False, True])
    def test_well_formed_file_is_read_as_arrays(self, tmp_path, monkeypatch, normalize):
        # A well-formed file is parsed once: parsing it again a line at a time would keep results and lose the speed.
        path = tmp_path / "f.tsv"
        ids, ts, x, y = make_rows(40, d=5, labels=[i % 3 for i in range(40)])
        write_feature_file(path, ids, ts, y, x, np.arange(len(x)), C=3)
        expected = load_feature_lines(str(path), normalize)

        def no_fallback(fd, start, stop, n_ints, k, normalize):
            raise AssertionError(f"bytes {start}:{stop} were parsed again a line at a time")

        monkeypatch.setattr(corpus_module, "record_fault", no_fallback)
        *loaded, c = read_feature_file(path, normalize=normalize)
        assert c == expected[4] == 3
        for got, want in zip(loaded, expected):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        path.write_text("#d=5 C=3\n\n")
        *empty, _ = read_feature_file(path, normalize=normalize)
        assert [a.shape for a in empty] == [(0,), (0,), (0,), (0, 5)]
        assert load_feature_file(path, normalize=normalize) == []


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_old_file_or_none(self, tmp_path, existing):
        path = tmp_path / "features.tsv"
        if existing:
            path.write_text("old\n")
        ids, ts, x, y = make_rows(4, d=2)
        x = x.astype(object)
        x[2, 1] = "x"
        with pytest.raises(ValueError):
            write_feature_file(path, ids, ts, y, x, np.arange(len(x)), C=1)
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


class TestForkShares:
    def test_workers_report_their_exit_codes_and_files_in_order(self):
        # Worker 1 returns, worker 2 raises and worker 3 is killed, each after writing to its file.
        def share(first, file):
            if file is None:
                return
            file.write(f"{first} of 4".encode())
            file.flush()
            if first == 2:
                raise RuntimeError("the worker fails")
            if first == 3:
                os.kill(os.getpid(), signal.SIGKILL)

        with corpus_module._fork_shares(4, share) as workers:
            assert [code for code, _ in workers] == [0, 1, -int(signal.SIGKILL)]
            assert [file.read() for _, file in workers] == [b"1 of 4", b"2 of 4", b"3 of 4"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_share_0_kills_and_reaps_the_workers_and_closes_their_files(self, monkeypatch):
        opened, real = [], tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda: opened.append(real()) or opened[-1])

        def share(first, file):
            if file is None:
                raise RuntimeError("share 0 fails")
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="share 0 fails"), corpus_module._fork_shares(3, share):
            pass
        assert time.monotonic() - started < 30
        assert len(opened) == 2 and all(file.closed for file in opened)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    def test_a_value_error_in_a_worker_is_raised_here_with_its_message(self):
        def share(first, file):
            if file is not None:
                file.write(b"partial output")
                if first == 2:
                    raise ValueError(f"share {first} rejects its input")

        with pytest.raises(ValueError, match="^share 2 rejects its input$"), corpus_module._fork_shares(4, share):
            pass
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_value_error_in_a_worker_is_raised_here_as_itself(self):
        # A reader's worker names a bad line by its byte offset, which the message alone would lose.
        def share(first, file):
            if first == 2:
                raise corpus_module.LineError(1234, "expected 3 components, got 2")

        with pytest.raises(corpus_module.LineError) as err, corpus_module._fork_shares(3, share):
            pass
        assert err.value.args == (1234, "expected 3 components, got 2")

    def test_a_block_that_raises_still_closes_every_worker_file(self):
        def share(first, file):
            if file is not None:
                file.write(b"output")

        with pytest.raises(RuntimeError, match="the block fails"), corpus_module._fork_shares(3, share) as workers:
            raise RuntimeError("the block fails")
        assert len(workers) == 2 and all(file.closed for _, file in workers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
def test_line_chunks_cover_the_range_and_end_at_newlines(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", chunk)
    data = b"head\n" + b"".join(b"x" * (i * 13 % 40) + b"\r\n\n\r"[: i % 4] for i in range(200)) + b"no newline"
    path = tmp_path / "lines"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        got = list(corpus_module.line_chunks(fh.fileno(), 5, len(data)))
        assert b"".join(piece for _, piece in got) == data[5:]
        assert [offset for offset, _ in got] == list(np.cumsum([5] + [len(piece) for _, piece in got[:-1]]))
        assert all(piece.endswith(b"\n") for _, piece in got[:-1])
        longest = max(len(line) for line in data.split(b"\n")) + 1
        assert all(len(piece) < 2 * max(chunk, longest) for _, piece in got)
        with pytest.raises(ValueError, match="file ended 5 bytes early"):
            list(corpus_module.line_chunks(fh.fileno(), len(data) - 5, len(data) + 5))


def vector_lines(lead_fields):
    """Twelve records with ``lead_fields`` integer fields and 3 components, a blank line and a CRLF line ending."""
    ids, ts, x, y = make_rows(12, labels=[i % 2 for i in range(12)])
    lead = [(i,) if lead_fields == 1 else (i, t, label) for i, t, label in zip(ids, ts, y)]
    lines = ["\t".join(map(str, fields)) + "\t" + ",".join(map(repr, row.tolist())) for fields, row in zip(lead, x)]
    lines[4] += "\r"
    return lines[:6] + [""] + lines[6:]


@pytest.mark.parametrize("bad", [None, 1, 11])
@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("kind", ["features", "embeddings"])
def test_forked_readers_match_one_process(tmp_path, monkeypatch, kind, processes, bad):
    # The records are cut into byte ranges parsed by forked workers; a bad
    # record in any range is named by its line, as in one process.
    lines = vector_lines(3 if kind == "features" else 1)
    if bad is not None:
        lines[bad] = lines[bad].rpartition(",")[0]
    path = tmp_path / f"{kind}.tsv"
    path.write_text("\n".join(["#d=3 C=2" if kind == "features" else "#m=3", *lines]) + "\n")
    read = read_feature_file if kind == "features" else load_embedding_file

    def outcome():
        try:
            return [a.tobytes() if isinstance(a, np.ndarray) else a for a in read(path)]
        except ValueError as exc:
            return type(exc), str(exc)

    expected = outcome()
    assert (bad is None) == isinstance(expected, list)
    forked = []
    real = corpus_module._fork_shares
    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 1)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, processes))
    monkeypatch.setattr(corpus_module, "_fork_shares", lambda count, share: forked.append(count) or real(count, share))
    assert outcome() == expected
    assert forked == [processes + 1]


@pytest.mark.parametrize("bad", [None, 1])
@pytest.mark.parametrize("kind", ["features", "embeddings"])
def test_a_file_with_lone_cr_line_ends_reads_as_its_lf_twin(tmp_path, kind, bad):
    # A text-mode file ends the header line, as every line, at a lone CR.
    lines = [line.rstrip("\r") for line in vector_lines(3 if kind == "features" else 1)]
    if bad is not None:
        lines[bad] = lines[bad].rpartition(",")[0]
    header = "#d=3 C=2" if kind == "features" else "#m=3"
    read = read_feature_file if kind == "features" else load_embedding_file

    def outcome(end):
        path = tmp_path / f"{kind}.tsv"
        path.write_bytes(end.join([header, *lines, ""]).encode())
        try:
            return [a.tobytes() if isinstance(a, np.ndarray) else a for a in read(path)]
        except ValueError as exc:
            return type(exc), str(exc)

    assert outcome("\r") == outcome("\n")
    assert (bad is None) == isinstance(outcome("\r"), list)


def test_a_dead_reader_worker_stops_the_read(tmp_path, monkeypatch):
    path = tmp_path / "features.tsv"
    path.write_text("\n".join(["#d=3 C=2", *vector_lines(3)]) + "\n")
    real = corpus_module._fork_shares

    def dying(processes, share):
        def die_then_share(first, file):
            if file is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            share(first, file)

        return real(processes, die_then_share)

    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 1)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: 2)
    monkeypatch.setattr(corpus_module, "_fork_shares", dying)
    with pytest.raises(ChildProcessError, match=f"a worker process reading {path} was killed by signal"):
        read_feature_file(path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("value", ["1_0", "\u0661"])
@pytest.mark.parametrize("kind", ["features", "embeddings", "queries"])
def test_a_value_only_float_accepts_is_rejected_at_its_line(tmp_path, kind, value):
    # float() reads "1_0" as 10.0 and "\u0661" (ARABIC-INDIC DIGIT ONE) as 1.0; np.loadtxt's grammar, the one every reader follows, rejects both.
    assert float(value) in (10.0, 1.0)
    header, lead, read, error = {
        "features": ("#d=2 C=1\n", "0\t0\t", read_feature_file, FeatureFileError),
        "embeddings": ("#m=2\n", "", load_embedding_file, EmbeddingFileError),
        "queries": ("", "", load_query_file, EmbeddingFileError),
    }[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_text(f"{header}{lead}0\t1.0,2.0\n{lead}1\t3.0,{value}\n", encoding="utf-8")
    line = 2 + bool(header)
    with pytest.raises(error, match=f"{kind}\\.tsv:{line}: could not convert string '{value}'"):
        read(path)


@pytest.mark.parametrize("kind", ["features", "embeddings", "queries"])
def test_a_rejected_value_is_named_by_its_line_and_column(tmp_path, kind):
    # numpy counts the rows of the one-line parse, whose "row 0" would sit beside the line number.
    header, lead, read, error = {
        "features": ("#d=2 C=1\n", "0\t0\t", read_feature_file, FeatureFileError),
        "embeddings": ("#m=2\n", "", load_embedding_file, EmbeddingFileError),
        "queries": ("", "", load_query_file, EmbeddingFileError),
    }[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_text(f"{header}{lead}0\t1.0,2.0\n{lead}1\t3.0,1_0\n", encoding="utf-8")
    with pytest.raises(error) as caught:
        read(path)
    assert str(caught.value) == f"{path}:{2 + bool(header)}: could not convert string '1_0' to float64 at column 2."


@pytest.mark.parametrize("fault", ["parse", "label", "label_then_parse"])
def test_a_bad_record_in_a_later_range_and_chunk_is_named_by_its_line(tmp_path, monkeypatch, fault):
    # Two workers parse a byte range each, in chunks of about 256 bytes.  Bad
    # record 50 of 60 sits in the second range, past its first chunk, after
    # blank lines and CRLF, CR and LF line ends.  A record that does not
    # parse is named before a label out of range on an earlier line.
    ids, ts, x, y = make_rows(60, labels=[i % 2 for i in range(60)])
    rows = [[str(i), str(t), str(label), ",".join(map(repr, row))]
            for i, t, label, row in zip(ids.tolist(), ts.tolist(), y.tolist(), x.tolist())]
    if fault == "label":
        rows[50][2] = "7"
    else:
        rows[50][3] = rows[50][3].replace(",", ";", 1)
    if fault == "label_then_parse":
        rows[3][2] = "7"
    ends = ["\n", "\r\n", "\r", "\n\n", "\n  \t \r\n"]
    lines = ["#d=3 C=2\n"] + ["\t".join(row) + ends[i % len(ends)] for i, row in enumerate(rows)]
    path = tmp_path / "features.tsv"
    path.write_bytes("".join(lines).encode())
    before = "".join(lines[:51])
    with open(path, "rb") as fh:
        fh.readline()
        fh.seek(fh.tell() + (path.stat().st_size - fh.tell()) // 2)
        fh.readline()
        assert fh.tell() + 256 < len(before.encode())  # the second range, past its first chunk

    forked = []
    real = corpus_module._fork_shares
    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 256)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, 2))
    monkeypatch.setattr(corpus_module, "_fork_shares", lambda count, share: forked.append(count) or real(count, share))
    message = "label 7 outside [0, 2)" if fault == "label" else "could not convert string"
    with pytest.raises(FeatureFileError, match=f"^{re.escape(str(path))}:{len(before.splitlines()) + 1}: {re.escape(message)}"):
        read_feature_file(path)
    assert forked == [3]


def test_a_repeated_id_in_a_later_range_and_chunk_is_named_by_its_line(tmp_path, monkeypatch):
    # Record 50 of 60 repeats record 3's id.  It sits in the second of two
    # workers' byte ranges, past its first chunk, after blank lines and CRLF,
    # CR and LF line ends.  Each reader names it from the offset its worker
    # recorded: this process reads only the bytes before it, to count lines.
    _, ts, x, _ = make_rows(60)
    ends = ["\n", "\r\n", "\r", "\n\n", "\n  \t \r\n"]
    records = [(3 if i == 50 else i, f"{t}\t0\t", ",".join(map(repr, row)) + ends[i % len(ends)])
               for i, (t, row) in enumerate(zip(ts.tolist(), x.tolist()))]
    spec = CurationSpec((("a", np.eye(3)[0]),), 1, 1, 1)

    def score(path):
        with open(path, "rb") as fh:
            score_embedding_file(fh, spec)

    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 256)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, 2))
    real, counted = corpus_module.line_chunks, []
    monkeypatch.setattr(corpus_module, "line_chunks",
                        lambda fd, start, stop: counted.append((start, stop)) or real(fd, start, stop))
    for header, lead, read, error in [("#d=3 C=1\n", True, read_feature_file, FeatureFileError),
                                      ("#m=3\n", False, load_embedding_file, EmbeddingFileError),
                                      ("#m=3\n", False, score, EmbeddingFileError)]:
        lines = [header] + [f"{ident}\t{fields if lead else ''}{vector}" for ident, fields, vector in records]
        path = tmp_path / "vectors.tsv"
        path.write_bytes("".join(lines).encode())
        before = "".join(lines[:51])
        counted.clear()
        with pytest.raises(error) as caught:
            read(path)
        assert str(caught.value) == f"{path}:{len(before.splitlines()) + 1}: duplicate id 3"
        assert counted == [(0, len(before.encode()))]


@pytest.mark.parametrize("processes", [1, 2])
def test_a_rejected_file_parses_no_record_twice_in_a_multi_line_call(tmp_path, monkeypatch, processes):
    # Record 50 of 60 has a bad value, past the first chunk of its byte
    # range.  Each chunk before it is parsed once; the rejected chunk is then
    # searched a line at a time, in the bytes already read.
    _, ts, x, _ = make_rows(60)
    vectors = [",".join(map(repr, row)) for row in x.tolist()]
    first, _, third = vectors[50].split(",")
    vectors[50] = f"{first},x,{third}"
    spec = CurationSpec((("a", np.eye(3)[0]),), 1, 1, 1)
    real = corpus_module.parse_records

    def parse(lines, *args):
        lines = list(lines)
        if len(lines) > 1:  # each process, the forked workers too, logs to its own file
            with open(tmp_path / f"parsed.{os.getpid()}", "a", encoding="utf-8") as log:
                log.writelines(line.strip() + "\n" for line in lines)
        return real(lines, *args)

    def score(path):
        with open(path, "rb") as fh:
            score_embedding_file(fh, spec)

    monkeypatch.setattr(corpus_module, "FORK_MIN_BYTES", 256)
    monkeypatch.setattr(corpus_module, "_process_count", lambda units: min(units, processes))
    monkeypatch.setattr(corpus_module, "parse_records", parse)
    for header, fields, read, error in [("#d=3 C=1\n", "{i}\t{t}\t0", read_feature_file, FeatureFileError),
                                        ("#m=3\n", "{i}", load_embedding_file, EmbeddingFileError),
                                        ("#m=3\n", "{i}", score, EmbeddingFileError)]:
        path = tmp_path / "vectors.tsv"
        path.write_text(header + "".join(f"{fields.format(i=i, t=t)}\t{vector}\n"
                                         for i, (t, vector) in enumerate(zip(ts.tolist(), vectors))))
        for log in tmp_path.glob("parsed.*"):
            log.unlink()
        with pytest.raises(error, match=rf"^{re.escape(str(path))}:52: could not convert string 'x' to float64 at column 2\b"):
            read(path)
        parsed = [line for log in tmp_path.glob("parsed.*") for line in log.read_text().splitlines()]
        assert parsed and len(parsed) == len(set(parsed))


def test_stream_manifest_format():
    cfg = DriftConfig(C=2, d=2, N=3, n_per_class=4, radius=1.0, drift_rate=0.0, noise=0.1, seed=0)
    stream = generate_drift_stream(cfg)
    lines = stream_manifest(stream).strip().splitlines()
    assert lines == ["0\t0\t0\t8", "1\t1\t1\t8", "2\t2\t2\t8"]
