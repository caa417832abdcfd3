"""Linear and two-layer-MLP classifiers over fixed features, trained with momentum SGD."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .corpus import FieldValueError, Sample, as_arrays, parse_int64


class Strategy(Enum):
    """Learner-update rule applied at each timestamp."""

    NAPPING = "napping"
    FROM_SCRATCH = "from_scratch"
    FINETUNING = "finetuning"


def parse_strategy(text: str) -> Strategy:
    try:
        return Strategy(text)
    except ValueError as exc:
        options = ", ".join(s.value for s in Strategy)
        raise ValueError(f"unknown strategy {text!r}; expected one of: {options}") from exc


@dataclass(frozen=True)
class Architecture:
    """Classifier shape: ``linear`` maps d -> C; ``mlp`` adds one ReLU hidden layer."""

    kind: str
    d: int
    C: int
    hidden: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"kind must be 'linear' or 'mlp', got {self.kind!r}")
        if self.d < 1 or self.C < 1:
            raise ValueError("d and C must be >= 1")
        if self.kind == "mlp" and (self.hidden is None or self.hidden < 1):
            raise ValueError("mlp requires hidden >= 1")


def parse_architecture(text: str, d: int, C: int) -> Architecture:
    """Parse the ``linear`` / ``mlp:<hidden>`` architecture syntax."""
    if text == "linear":
        return Architecture(kind="linear", d=d, C=C)
    if text.startswith("mlp:"):
        try:
            hidden = parse_int64(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad hidden width in {text!r}") from exc
        return Architecture(kind="mlp", d=d, C=C, hidden=hidden)
    raise ValueError(f"expected 'linear' or 'mlp:<hidden>', got {text!r}")


@dataclass(frozen=True)
class Hyperparams:
    """Momentum-SGD settings; the learning rate is multiplied by ``decay_factor``
    once, after ``decay_epoch`` epochs have run."""

    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 256
    epochs: int = 100
    decay_epoch: int = 60
    decay_factor: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise FieldValueError("learning_rate", "must be finite and >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise FieldValueError("momentum", "must be in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise FieldValueError("weight_decay", "must be finite and >= 0")
        for field in ("batch_size", "epochs", "decay_epoch"):
            if getattr(self, field) < 1:
                raise FieldValueError(field, "must be >= 1")
        if self.decay_epoch > self.epochs:
            raise FieldValueError("decay_epoch", "must be <= epochs", ("epochs",))
        if not 0.0 < self.decay_factor <= 1.0:
            raise FieldValueError("decay_factor", "must be in (0, 1]")


@dataclass(frozen=True)
class LearnerState:
    """Parameters plus momentum buffers; treated as immutable, training returns a new state."""

    architecture: Architecture
    params: Mapping[str, np.ndarray]
    velocity: Mapping[str, np.ndarray]


def _param_shapes(arch: Architecture) -> dict[str, tuple[int, ...]]:
    if arch.kind == "linear":
        return {"w": (arch.C, arch.d), "b": (arch.C,)}
    h = int(arch.hidden)  # type: ignore[arg-type]
    return {"w1": (h, arch.d), "b1": (h,), "w2": (arch.C, h), "b2": (arch.C,)}


def init_learner(arch: Architecture, seed: int) -> LearnerState:
    """Uniform fan-in initialization: weights in (-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero."""
    rng = np.random.default_rng([seed, 0])
    fan_in = {"w": arch.d, "w1": arch.d, "w2": arch.hidden or 1}
    params: dict[str, np.ndarray] = {}
    velocity: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(arch).items():
        if name.startswith("w"):
            bound = 1.0 / math.sqrt(fan_in[name])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
        velocity[name] = np.zeros(shape)
    return LearnerState(architecture=arch, params=params, velocity=velocity)


def _forward(
    arch: Architecture, params: Mapping[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """Hidden ReLU activations (``None`` for ``linear``) and logits, adding biases in place."""
    if arch.kind == "linear":
        z = x @ params["w"].T
        z += params["b"]
        return None, z
    hid = x @ params["w1"].T
    hid += params["b1"]
    np.maximum(hid, 0.0, out=hid)
    z = hid @ params["w2"].T
    z += params["b2"]
    return hid, z


def _loss_grad_arrays(
    state: LearnerState, x: np.ndarray, y: np.ndarray, with_loss: bool = True
) -> tuple[float | None, dict[str, np.ndarray]]:
    """Mean cross-entropy (``None`` unless ``with_loss``) and its gradients.

    The softmax is computed in the logits' own buffer.
    """
    arch, params = state.architecture, state.params
    n = x.shape[0]
    hid, z = _forward(arch, params, x)

    z -= z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(log_norm - z[np.arange(n), y])) if with_loss else None

    z -= log_norm[:, None]
    dz = np.exp(z, out=z)
    dz[np.arange(n), y] -= 1.0
    dz /= n

    if hid is None:
        return loss, {"w": dz.T @ x, "b": dz.sum(axis=0)}
    dpre = dz @ params["w2"]
    dpre *= hid > 0.0  # ReLU subgradient at 0 is 0
    return loss, {
        "w1": dpre.T @ x,
        "b1": dpre.sum(axis=0),
        "w2": dz.T @ hid,
        "b2": dz.sum(axis=0),
    }


def forward_loss_grad(
    state: LearnerState, batch: Sequence[Sample]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy of the batch and exact analytic gradients.

    Softmax is computed after subtracting the per-row maximum for stability.
    """
    x, y = as_arrays(batch)
    if x.shape[1] != state.architecture.d:
        raise ValueError(f"expected dimension {state.architecture.d}, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature value in batch")
    if y.min() < 0 or y.max() >= state.architecture.C:
        raise ValueError("label out of range for this learner")
    return _loss_grad_arrays(state, x, y)


def fit(
    state: LearnerState, x: np.ndarray, y: np.ndarray, hp: Hyperparams, rows: np.ndarray | None = None
) -> LearnerState:
    """Run momentum SGD for ``hp.epochs`` epochs over seeded shuffles of the training rows of ``(x, y)``.

    The training rows are ``rows``, an index vector into ``x`` and ``y``, or
    every row in order when it is None; ``fit(state, x, y, hp, rows)`` equals
    ``fit(state, x[rows], y[rows], hp)`` bit for bit.  Each minibatch gathers
    its rows from ``x`` and ``y``, so no copy larger than one minibatch is
    made; epoch 1 visits every training row once and checks each minibatch's
    features for non-finite values as it gathers them.

    Update rule per minibatch: ``v <- momentum * v + g``, ``theta <- theta - lr * v``,
    with weight decay added to the gradient.  The updates run in place on
    copies of ``state``'s arrays, which is never mutated, with the roundings
    of the formulas above.  The minibatch loss is not computed.  The last
    batch of an epoch may be smaller.  Deterministic per ``hp.seed``.  Raises
    ``ValueError`` when a training row holds a non-finite feature, and
    ``FloatingPointError`` when training diverged, i.e. any parameter is
    non-finite afterwards.
    """
    rows = np.arange(len(y)) if rows is None else rows
    n = len(rows)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if x.shape[1] != state.architecture.d:
        raise ValueError(f"expected dimension {state.architecture.d}, got {x.shape[1]}")
    rng = np.random.default_rng([hp.seed, 1])
    params = {k: v.copy() for k, v in state.params.items()}
    velocity = {k: v.copy() for k, v in state.velocity.items()}
    work = LearnerState(architecture=state.architecture, params=params, velocity=velocity)
    lr = hp.learning_rate
    for epoch in range(1, hp.epochs + 1):
        if epoch == hp.decay_epoch + 1:
            lr *= hp.decay_factor
        order = rows[rng.permutation(n)]
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            batch = x[idx]
            if epoch == 1 and not np.all(np.isfinite(batch)):
                raise ValueError("non-finite feature value in dataset")
            _, grads = _loss_grad_arrays(work, batch, y[idx], with_loss=False)
            for name, g in grads.items():
                p, v = params[name], velocity[name]
                if hp.weight_decay:
                    g += hp.weight_decay * p
                v *= hp.momentum
                v += g
                p -= lr * v
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise FloatingPointError(
                f"training diverged: parameter {name!r} is non-finite at lr={hp.learning_rate}"
            )
    return work


def train(state: LearnerState, dataset: Sequence[Sample], hp: Hyperparams) -> LearnerState:
    """:func:`fit` on a sample sequence, stacked into arrays."""
    return fit(state, *as_arrays(dataset), hp)


def predict_batch(state: LearnerState, features: np.ndarray) -> np.ndarray:
    """Argmax class per row of ``features``; ties resolve to the lowest class index."""
    if features.ndim != 2 or features.shape[1] != state.architecture.d:
        raise ValueError(f"expected shape (n, {state.architecture.d}), got {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature value")
    return np.argmax(_forward(state.architecture, state.params, features)[1], axis=1)


def strategy_step(
    strategy: Strategy,
    prev: LearnerState | None,
    timestamp_index: int,
    x: np.ndarray,
    y: np.ndarray,
    hp: Hyperparams,
    architecture: Architecture,
    rows: np.ndarray | None = None,
) -> LearnerState:
    """Produce the timestamp's predictor from the training rows ``rows`` of ``(x, y)``.

    ``rows`` is as for :func:`fit`: None trains on every row, in order.
    Every strategy reinitializes and trains at the first timestamp.  After it,
    From-Scratch reinitializes and trains each time, Napping returns ``prev``
    unchanged, and Finetuning continues from the previous weights.
    """
    if strategy is Strategy.FROM_SCRATCH or timestamp_index == 0:
        return fit(init_learner(architecture, hp.seed), x, y, hp, rows)
    if prev is None:
        raise ValueError(f"{strategy.value} after the first timestamp requires a previous state")
    if strategy is Strategy.NAPPING:
        return prev
    return fit(prev, x, y, hp, rows)
