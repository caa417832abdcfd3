"""Property tests for the matrix and event-log formats and the replay buffer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench.corpus import Bucket, Sample
from driftbench.protocol import (
    AccuracyMatrix,
    Event,
    ProtocolKind,
    event_log_text,
    matrix_from_text,
    matrix_to_text,
    parse_event_log,
)
from driftbench.sampler import AlphaPolicy, PolicyKind, ReplayBuffer, update_buffer

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
    step=st.integers(-5, 10**6),
    bucket=st.integers(-5, 10**6),
)

policies = st.builds(
    AlphaPolicy,
    kind=st.sampled_from(list(PolicyKind)),
    value=st.floats(0.05, 4.0),
)


def make_buckets(sizes):
    buckets, sid = [], 0
    for t, size in enumerate(sizes):
        samples = tuple(
            Sample(id=sid + j, timestamp=t, features=np.zeros(2), label=0) for j in range(size)
        )
        buckets.append(Bucket(index=t, samples=samples))
        sid += size
    return buckets


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


@SETTINGS
@given(st.integers(1, 20), bucket_sizes, policies, st.integers(0, 2**32 - 1))
def test_update_buffer_invariants(capacity, sizes, policy, seed):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer.empty(capacity)
    seen = 0
    for bucket in make_buckets(sizes):
        buf = update_buffer(buf, bucket, policy, rng)
        seen += len(bucket)
        ids = [s.id for s in buf.entries]
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
        arrived.extend(s.id for s in bucket.samples)
        assert [s.id for s in buf.entries] == arrived[-capacity:]
