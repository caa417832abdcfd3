"""Bounded replay buffer maintained by bucket-level biased reservoir sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import Bucket, Sample


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
    """Bounded sample store; ``seen_count`` is the total stream size observed so far."""

    capacity: int
    entries: tuple[Sample, ...]
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
    bucket: Bucket | Sequence[Sample],
    policy: AlphaPolicy,
    rng: np.random.Generator,
) -> ReplayBuffer:
    """Fold one bucket into the buffer with bucket-level biased reservoir sampling.

    All samples of the bucket share one timestamp: the seen count ``i`` is fixed
    before the loop.  Samples fill the buffer directly while it is under
    capacity; the rest enter a temporary set with the policy's acceptance
    probability.  Survivors are then chosen by a uniform shuffle, the first
    ``|T|`` entries are dropped and the temporary set is appended in arrival
    order.  When the acceptance probability saturates at 1.0 the drop removes
    the oldest entries instead, which keeps the exact FIFO semantics of the
    saturated regime.  If the concatenation exceeds capacity, only the final
    ``k`` entries are retained.  Deterministic given the rng state.
    """
    samples = tuple(bucket.samples) if isinstance(bucket, Bucket) else tuple(bucket)
    if not samples:
        raise ValueError("bucket must be non-empty")
    reference = buffer.entries[0] if buffer.entries else samples[0]
    dim = reference.features.shape
    for s in samples:
        if s.features.shape != dim:
            raise ValueError(
                f"sample {s.id}: feature dimension {s.features.shape} != buffer's {dim}"
            )

    k = buffer.capacity
    i = buffer.seen_count + len(samples)
    prob = acceptance_probability(policy, i, k)

    entries = list(buffer.entries)
    n_fill = min(k - len(entries), len(samples))
    entries.extend(samples[:n_fill])
    overflow = samples[n_fill:]

    if prob >= 1.0:
        accepted = list(overflow)
    else:
        draws = rng.random(len(overflow))
        accepted = [s for s, p in zip(overflow, draws) if p <= prob]

    if accepted:
        if prob >= 1.0:
            survivors = entries[len(accepted) :]
        else:
            perm = rng.permutation(len(entries))
            shuffled = [entries[j] for j in perm]
            survivors = shuffled[len(accepted) :]
        entries = survivors + accepted
        if len(entries) > k:
            entries = entries[-k:]

    return ReplayBuffer(capacity=k, entries=tuple(entries), seen_count=i)
