import numpy as np
import pytest

from driftbench.metrics import (
    METRIC_NAMES,
    MetricReport,
    aggregate,
    compute_metrics,
    csv_rows,
    report_text,
)
from driftbench.protocol import AccuracyMatrix, ProtocolKind


def iid_matrix(cells):
    return AccuracyMatrix(cells=np.asarray(cells, dtype=float), protocol=ProtocolKind.IID)


def streaming_matrix(n, value=0.5):
    cells = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            cells[i, j] = value
    return AccuracyMatrix(cells=cells, protocol=ProtocolKind.STREAMING)


def brute_force(cells):
    # Independent triple-nested-loop oracle over a fully present matrix.
    n = cells.shape[0]
    sums = dict.fromkeys(METRIC_NAMES, 0.0)
    counts = dict.fromkeys(METRIC_NAMES, 0)
    for i in range(n):
        for j in range(n):
            v = cells[i][j]
            if i >= j:
                sums["accuracy"] += v
                counts["accuracy"] += 1
            if i > j:
                sums["backward_transfer"] += v
                counts["backward_transfer"] += 1
            if i < j:
                sums["forward_transfer"] += v
                counts["forward_transfer"] += 1
            if i == j:
                sums["in_domain"] += v
                counts["in_domain"] += 1
            if j == i + 1:
                sums["next_domain"] += v
                counts["next_domain"] += 1
    return {name: sums[name] / counts[name] for name in METRIC_NAMES}


class TestComputeMetrics:
    def test_all_ones(self):
        report = compute_metrics(iid_matrix(np.ones((4, 4))))
        for name in METRIC_NAMES:
            assert getattr(report, name) == 1.0

    def test_identity_matrix(self):
        report = compute_metrics(iid_matrix(np.eye(3)))
        assert report.in_domain == 1.0
        assert report.next_domain == 0.0
        assert report.accuracy == pytest.approx(0.5, abs=1e-15)
        assert report.backward_transfer == 0.0
        assert report.forward_transfer == 0.0

    def test_worked_example(self):
        cells = [[0.9, 0.8, 0.7], [0.85, 0.9, 0.8], [0.8, 0.85, 0.9]]
        report = compute_metrics(iid_matrix(cells))
        assert report.in_domain == pytest.approx(0.9, abs=1e-12)
        assert report.next_domain == pytest.approx(0.8, abs=1e-12)
        assert report.accuracy == pytest.approx(5.2 / 6, abs=1e-12)
        assert report.backward_transfer == pytest.approx(2.5 / 3, abs=1e-12)
        assert report.forward_transfer == pytest.approx(2.3 / 3, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            cells = rng.uniform(0, 1, size=(n, n))
            report = compute_metrics(iid_matrix(cells))
            oracle = brute_force(cells)
            for name in METRIC_NAMES:
                assert abs(getattr(report, name) - oracle[name]) <= 1e-12

    def test_range_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            report = compute_metrics(iid_matrix(rng.uniform(0, 1, size=(n, n))))
            for name in METRIC_NAMES:
                assert 0.0 <= getattr(report, name) <= 1.0

    def test_transpose_swaps_transfers(self):
        rng = np.random.default_rng(2)
        cells = rng.uniform(0, 1, size=(5, 5))
        a = compute_metrics(iid_matrix(cells))
        b = compute_metrics(iid_matrix(cells.T))
        assert a.backward_transfer == pytest.approx(b.forward_transfer, abs=1e-15)
        assert a.forward_transfer == pytest.approx(b.backward_transfer, abs=1e-15)
        assert a.in_domain == pytest.approx(b.in_domain, abs=1e-15)

    def test_streaming_exposes_only_future_metrics(self):
        report = compute_metrics(streaming_matrix(4, 0.75))
        assert report.accuracy is None
        assert report.backward_transfer is None
        assert report.in_domain is None
        assert report.next_domain == pytest.approx(0.75)
        assert report.forward_transfer == pytest.approx(0.75)
        assert {name for name in METRIC_NAMES if getattr(report, name) is not None} == {"next_domain", "forward_transfer"}

    def test_small_matrix_rejected(self):
        with pytest.raises(ValueError):
            AccuracyMatrix(cells=np.ones((1, 1)), protocol=ProtocolKind.IID)


class TestAggregate:
    def make_report(self, nd):
        return MetricReport(
            protocol=ProtocolKind.STREAMING,
            accuracy=None,
            backward_transfer=None,
            forward_transfer=0.5,
            in_domain=None,
            next_domain=nd,
        )

    def test_single_report(self):
        agg = aggregate([self.make_report(0.8)])
        assert agg.means["next_domain"] == 0.8
        assert agg.stds["next_domain"] == 0.0
        assert agg.n_seeds == 1

    def test_two_reports_population_std(self):
        agg = aggregate([self.make_report(0.8), self.make_report(0.9)])
        assert agg.means["next_domain"] == pytest.approx(0.85)
        assert agg.stds["next_domain"] == pytest.approx(0.05)

    def test_identical_reports_zero_std(self):
        agg = aggregate([self.make_report(0.7)] * 4)
        assert agg.stds["next_domain"] == 0.0

    def test_mixed_protocols_rejected(self):
        iid_report = compute_metrics(iid_matrix(np.ones((3, 3))))
        with pytest.raises(ValueError):
            aggregate([self.make_report(0.5), iid_report])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_absent_metrics_stay_absent(self):
        agg = aggregate([self.make_report(0.6), self.make_report(0.7)])
        assert "accuracy" not in agg.means and "in_domain" not in agg.means


def test_report_text_and_csv_rows():
    reports = [
        compute_metrics(iid_matrix([[0.9, 0.8], [0.7, 0.6]])),
        compute_metrics(iid_matrix([[0.8, 0.7], [0.6, 0.5]])),
    ]
    agg = aggregate(reports)
    text = report_text(agg)
    assert "protocol=iid" in text and "n_seeds=2" in text
    assert "in_domain_mean=0.700000" in text
    rows = csv_rows("cellA", agg)
    assert len(rows) == 5
    assert rows[0].startswith("cellA,accuracy,")
