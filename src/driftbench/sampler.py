"""Bounded replay buffer maintained by bucket-level biased reservoir sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class PolicyKind(Enum):
    FIXED = "fixed"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class AlphaPolicy:
    """Recency-bias policy for reservoir acceptance.

    Fixed: alpha is ``value`` itself.  Dynamic: alpha grows with the stream,
    ``value * i / k``, which makes the acceptance probability a constant
    ``min(1, value)``; at ``value = 1.0`` the buffer degenerates to a FIFO
    queue of the last ``k`` samples.
    """

    kind: PolicyKind
    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"alpha value must be finite and > 0, got {self.value}")

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.value:g}"


def parse_policy(text: str) -> AlphaPolicy:
    """Parse the ``fixed:<value>`` / ``dynamic:<coefficient>`` policy syntax."""
    kind, sep, raw = text.partition(":")
    if not sep or kind not in ("fixed", "dynamic"):
        raise ValueError(f"expected 'fixed:<value>' or 'dynamic:<coefficient>', got {text!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"bad alpha value in {text!r}") from exc
    return AlphaPolicy(kind=PolicyKind(kind), value=value)


@dataclass(frozen=True)
class ReplayBuffer:
    """Bounded store of stream items; ``seen_count`` is the total stream size observed so far.

    The protocols store stream row indices; the sampler never looks inside an item.
    """

    capacity: int
    entries: tuple[object, ...]
    seen_count: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if len(self.entries) > self.capacity:
            raise ValueError("buffer over capacity")

    @classmethod
    def empty(cls, capacity: int) -> "ReplayBuffer":
        return cls(capacity=capacity, entries=(), seen_count=0)


def acceptance_probability(policy: AlphaPolicy, i: int, k: int) -> float:
    """Probability that a new sample enters the temporary set once the buffer is full.

    Returns ``min(1, alpha * k / i)`` with alpha = ``value`` (fixed) or
    ``value * i / k`` (dynamic); for dynamic policies the product collapses to
    ``min(1, value)`` exactly.
    """
    if i < 1 or k < 1:
        raise ValueError("i and k must be >= 1")
    if policy.kind is PolicyKind.DYNAMIC:
        return min(1.0, policy.value)
    return min(1.0, policy.value * k / i)


def update_buffer(
    buffer: ReplayBuffer,
    bucket: Sequence[object],
    policy: AlphaPolicy,
    rng: np.random.Generator,
) -> ReplayBuffer:
    """Fold one bucket's items into the buffer with bucket-level biased reservoir sampling.

    All items of the bucket share one timestamp: the seen count ``i`` is fixed
    before the loop.  Items fill the buffer directly while it is under
    capacity; the rest enter a temporary set with the policy's acceptance
    probability.  Survivors are then chosen by a uniform shuffle, the first
    ``|T|`` entries are dropped and the temporary set is appended in arrival
    order.  When the acceptance probability saturates at 1.0 the drop removes
    the oldest entries instead, which keeps the exact FIFO semantics of the
    saturated regime.  If the concatenation exceeds capacity, only the final
    ``k`` entries are retained.  Deterministic given the rng state: the draws
    are ``rng.random(len(overflow))`` then ``rng.permutation(len(entries))``.
    """
    items = tuple(bucket)
    if not items:
        raise ValueError("bucket must be non-empty")

    k = buffer.capacity
    i = buffer.seen_count + len(items)
    prob = acceptance_probability(policy, i, k)

    entries = list(buffer.entries)
    n_fill = min(k - len(entries), len(items))
    entries.extend(items[:n_fill])
    overflow = items[n_fill:]

    if prob >= 1.0:
        accepted = list(overflow)
    else:
        draws = rng.random(len(overflow))
        accepted = [s for s, p in zip(overflow, draws) if p <= prob]
        if accepted:
            entries = [entries[j] for j in rng.permutation(len(entries))]
    if accepted:
        entries = (entries[len(accepted) :] + accepted)[-k:]
    return ReplayBuffer(capacity=k, entries=tuple(entries), seen_count=i)
