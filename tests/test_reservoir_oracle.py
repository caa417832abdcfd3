"""Exact oracle for the biased reservoir: every policy, equal and unequal bucket sizes.

The oracle gives each item seen so far the probability that it is in the
buffer; the expected count of a group of items is the sum over the group.
When a bucket arrives, ``f`` items fill the buffer and the ``o`` that
overflow are each accepted with ``p = acceptance_probability(policy, i, k)``,
so the accepted count A is Binomial(o, p).

- p < 1: the buffer's entries, the fill included, are shuffled and the
  first min(A, k) dropped, so each survives with probability
  E[(k - min(A, k)) / k].  The accepted items are appended in arrival order
  and only the last k of them kept: overflow item j stays when it is
  accepted and fewer than k items after it are.
- p >= 1: the o oldest entries go.  Under a fixed alpha p falls as the
  stream grows and a dynamic policy keeps one p, so this branch only runs
  before any shuffle, while the buffer holds the last items seen, in order.

Each bucket is counted in two halves by arrival, so that which accepted
items are kept is checked too.  The runs use fixed seeds; a group's mean
count over the runs must lie within ``Z_BOUND`` standard errors of the
oracle, and a group the oracle fixes must match exactly.
"""

import math

import numpy as np
import pytest

from driftbench.sampler import ReplayBuffer, acceptance_probability, parse_policy, update_buffer

K = 100
RUNS = 1000
Z_BOUND = 4.5
PLANS = {"equal": [200] * 10, "unequal": [60, 100, 30, 250, 100, 40, 300, 10]}
POLICIES = ["fixed:0.5", "fixed:1", "fixed:5", "dynamic:0.25", "dynamic:0.75"]


def inclusion_probabilities(sizes, policy, k):
    """Each item's probability of being in the buffer after the last bucket, items in arrival order."""
    prob = np.zeros(sum(sizes))
    seen, shuffled = 0, False
    for size in sizes:
        fill = min(k - min(seen, k), size)
        overflow = size - fill
        prob[seen : seen + fill] = 1.0
        seen += size
        p = acceptance_probability(policy, seen, k)
        if overflow == 0:
            continue
        if p >= 1.0:
            assert not shuffled, "the FIFO branch after a shuffle: the buffer is no longer in arrival order"
            prob[: seen - k] = 0.0
            prob[seen - k : seen] = 1.0
            continue
        shuffled = True
        # pmf is Binomial(m, p)'s for m = 0..o; at_most[m] = P(Binomial(m, p) <= k - 1).
        pmf, at_most = np.ones(1), []
        for _ in range(overflow):
            at_most.append(pmf[:k].sum())
            pmf = np.append(pmf * (1 - p), 0.0) + np.append(0.0, pmf * p)
        prob[: seen - overflow] *= pmf @ ((k - np.minimum(np.arange(overflow + 1), k)) / k)
        # Overflow item j is kept when accepted and at most k - 1 of the o - 1 - j after it are.
        prob[seen - overflow : seen] = p * np.array(at_most[::-1])
    return prob


def groups(sizes):
    """Each item's group: bucket t's first half is group 2t, its second half 2t + 1."""
    return np.concatenate([2 * t + (np.arange(size) >= size // 2) for t, size in enumerate(sizes)])


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("policy_text", POLICIES)
def test_reservoir_counts_match_the_exact_oracle(policy_text, plan):
    sizes, policy = PLANS[plan], parse_policy(policy_text)
    group_of = groups(sizes)
    n_groups = 2 * len(sizes)
    starts = np.cumsum([0, *sizes])
    counts = np.empty((RUNS, n_groups))
    for seed in range(RUNS):
        buffer, rng = ReplayBuffer.empty(K), np.random.default_rng(seed)
        for start, size in zip(starts, sizes):
            buffer = update_buffer(buffer, range(start, start + size), policy, rng)
        counts[seed] = np.bincount(group_of[list(buffer.entries)], minlength=n_groups)
    prob = inclusion_probabilities(sizes, policy, K)
    expected = np.bincount(group_of, weights=prob, minlength=n_groups)
    assert np.isclose(expected.sum(), K)
    # A group whose items are each in or out but for a chance below 1e-9 has one count.
    uncertain = (prob > 1e-9) & (prob < 1 - 1e-9)
    fixed = np.bincount(group_of, weights=uncertain, minlength=n_groups) == 0
    mean = counts.mean(axis=0)
    assert np.allclose(mean[fixed], expected[fixed], rtol=0, atol=1e-6), (mean[fixed], expected[fixed])
    # An integer count with mean m has a variance of at least m - m^2: a
    # rare group's runs may show less spread than it has.
    var = np.maximum(counts.var(axis=0, ddof=1), expected - expected**2)
    z = (mean[~fixed] - expected[~fixed]) / np.sqrt(var[~fixed] / RUNS)
    assert np.abs(z).max(initial=0.0) <= Z_BOUND, dict(zip(np.flatnonzero(~fixed).tolist(), z.round(2).tolist()))
