import numpy as np
import pytest

from driftbench.sampler import (
    AlphaPolicy,
    PolicyKind,
    ReplayBuffer,
    acceptance_probability,
    parse_policy,
    update_buffer,
)

FIXED1 = AlphaPolicy(PolicyKind.FIXED, 1.0)
FIFO = AlphaPolicy(PolicyKind.DYNAMIC, 1.0)


def make_stream(sizes):
    """Row indices of consecutive buckets of the given sizes, as the protocols pass them."""
    offsets = np.cumsum([0] + list(sizes)).tolist()
    return [range(lo, hi) for lo, hi in zip(offsets, offsets[1:])]


class TestAcceptanceProbability:
    def test_classic_reservoir(self):
        assert acceptance_probability(FIXED1, i=1000, k=100) == 0.1

    def test_dynamic_unit_coefficient_is_always_one(self):
        for i in (100, 300, 1234):
            assert acceptance_probability(FIFO, i=i, k=100) == 1.0

    def test_fixed_clamps_at_one(self):
        assert acceptance_probability(AlphaPolicy(PolicyKind.FIXED, 5.0), i=200, k=100) == 1.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            policy = AlphaPolicy(
                PolicyKind.FIXED if rng.random() < 0.5 else PolicyKind.DYNAMIC,
                float(rng.uniform(0.01, 8.0)),
            )
            p = acceptance_probability(policy, int(rng.integers(1, 10_000)), int(rng.integers(1, 500)))
            assert 0.0 <= p <= 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            acceptance_probability(FIXED1, i=0, k=10)
        with pytest.raises(ValueError):
            acceptance_probability(FIXED1, i=10, k=0)


def test_parse_policy():
    p = parse_policy("fixed:5.0")
    assert p.kind is PolicyKind.FIXED and p.value == 5.0
    p = parse_policy("dynamic:0.75")
    assert p.kind is PolicyKind.DYNAMIC and p.value == 0.75
    assert str(p) == "dynamic:0.75"
    for bad in ("fixed", "uniform:1.0", "fixed:x", "fixed:-1"):
        with pytest.raises(ValueError):
            parse_policy(bad)


class TestUpdateBuffer:
    def test_under_capacity_fills_in_order(self):
        buf = ReplayBuffer.empty(100)
        out = update_buffer(buf, range(60), FIXED1, np.random.default_rng(0))
        assert list(out.entries) == list(range(60))
        assert out.seen_count == 60

    def test_fifo_two_full_buckets(self):
        buf = ReplayBuffer.empty(100)
        rng = np.random.default_rng(7)
        b1, b2 = make_stream([100, 100])
        buf = update_buffer(buf, b1, FIFO, rng)
        buf = update_buffer(buf, b2, FIFO, rng)
        assert list(buf.entries) == list(b2)

    @pytest.mark.parametrize("sizes", [[100] * 4, [60, 60, 60], [60, 100, 30, 100], [250, 40]])
    def test_fifo_equals_last_k_for_any_sizes(self, sizes):
        # Dynamic c=1.0 degenerates to a FIFO of the last k stream samples, every seed.
        k = 100
        stream = make_stream(sizes)
        flat = [row for b in stream for row in b]
        for seed in range(10):
            buf = ReplayBuffer.empty(k)
            rng = np.random.default_rng(seed)
            for b in stream:
                buf = update_buffer(buf, b, FIFO, rng)
            assert list(buf.entries) == flat[-min(k, len(flat)) :]

    def test_capacity_invariant(self):
        rng_cfg = np.random.default_rng(5)
        for trial in range(30):
            k = int(rng_cfg.integers(1, 50))
            sizes = [int(rng_cfg.integers(1, 120)) for _ in range(4)]
            value = float(rng_cfg.uniform(0.1, 6.0))
            kind = PolicyKind.FIXED if trial % 2 else PolicyKind.DYNAMIC
            policy = AlphaPolicy(kind, value)
            buf = ReplayBuffer.empty(k)
            rng = np.random.default_rng(trial)
            total = 0
            for b in make_stream(sizes):
                buf = update_buffer(buf, b, policy, rng)
                total += len(b)
                assert len(buf.entries) <= k
                assert buf.seen_count == total
                if acceptance_probability(policy, buf.seen_count, k) >= 1.0 or total <= k:
                    assert len(buf.entries) == min(k, total)

    def test_determinism(self):
        bucket, follow = make_stream([300, 300])
        runs = []
        for _ in range(2):
            buf = ReplayBuffer.empty(50)
            rng = np.random.default_rng(42)
            buf = update_buffer(buf, bucket, FIXED1, rng)
            buf = update_buffer(buf, follow, FIXED1, rng)
            runs.append(list(buf.entries))
        assert runs[0] == runs[1]

    def test_does_not_mutate_input(self):
        buf = ReplayBuffer.empty(10)
        out = update_buffer(buf, range(5), FIXED1, np.random.default_rng(0))
        assert buf.entries == () and buf.seen_count == 0
        assert out is not buf

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError):
            update_buffer(ReplayBuffer.empty(5), range(0), FIXED1, np.random.default_rng(0))

    def test_accepts_plain_sequences(self):
        # Any item type is stored as given: rows here, samples or ids elsewhere.
        items = [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
        out = update_buffer(ReplayBuffer.empty(8), items, FIXED1, np.random.default_rng(0))
        assert out.entries == tuple(items)


def test_monotone_recency_bias():
    # Mean fraction of final-bucket samples must not decrease in alpha (200 seeds).
    k = 60
    stream = make_stream([120] * 5)
    final_rows = set(stream[-1])
    fractions = {}
    for value in (0.5, 5.0):
        policy = AlphaPolicy(PolicyKind.FIXED, value)
        total = 0.0
        for seed in range(200):
            buf = ReplayBuffer.empty(k)
            rng = np.random.default_rng(seed)
            for b in stream:
                buf = update_buffer(buf, b, policy, rng)
            total += sum(1 for row in buf.entries if row in final_rows) / k
        fractions[value] = total / 200
    assert fractions[5.0] >= fractions[0.5]


def test_buffer_validation():
    with pytest.raises(ValueError):
        ReplayBuffer.empty(0)
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=1, entries=(0, 1), seen_count=2)
