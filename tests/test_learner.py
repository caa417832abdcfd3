import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench.corpus import Sample
from driftbench.learner import (
    Architecture,
    Hyperparams,
    LearnerState,
    Strategy,
    fit,
    forward_loss_grad,
    init_learner,
    parse_architecture,
    parse_strategy,
    predict_batch,
    strategy_step,
    train,
)

LINEAR_2_2 = Architecture(kind="linear", d=2, C=2)


def make_batch(x, y):
    return [
        Sample(id=i, timestamp=0, features=np.asarray(xi, dtype=float), label=int(yi))
        for i, (xi, yi) in enumerate(zip(x, y))
    ]


def zero_state(arch):
    init = init_learner(arch, seed=0)
    params = {k: np.zeros_like(v) for k, v in init.params.items()}
    velocity = {k: np.zeros_like(v) for k, v in init.velocity.items()}
    return LearnerState(architecture=arch, params=params, velocity=velocity)


def flatten(grads):
    return np.concatenate([grads[k].ravel() for k in sorted(grads)])


def numerical_gradient(state, batch, step=1e-4):
    out = {}
    for name, value in state.params.items():
        g = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            for sign in (+1, -1):
                shifted = {k: v.copy() for k, v in state.params.items()}
                shifted[name][idx] += sign * step
                probe = LearnerState(state.architecture, shifted, state.velocity)
                loss, _ = forward_loss_grad(probe, batch)
                g[idx] += sign * loss
            g[idx] /= 2 * step
        out[name] = g
    return out


class TestInit:
    def test_deterministic(self):
        a = init_learner(Architecture("linear", 4, 3), seed=5)
        b = init_learner(Architecture("linear", 4, 3), seed=5)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_biases_zero_and_velocity_zero(self):
        state = init_learner(Architecture("mlp", 4, 3, hidden=8), seed=1)
        assert np.all(state.params["b1"] == 0) and np.all(state.params["b2"] == 0)
        for v in state.velocity.values():
            assert np.all(v == 0)

    def test_fan_in_bound(self):
        state = init_learner(Architecture("linear", 100, 5), seed=2)
        w = state.params["w"]
        assert w.shape == (5, 100)
        assert np.all(np.abs(w) < 0.1)


class TestForwardLossGrad:
    def test_uniform_logits_loss_is_log_c(self):
        for c in (2, 3, 7):
            arch = Architecture("linear", 3, c)
            batch = make_batch(np.ones((4, 3)), [0, 1 % c, 0, c - 1])
            loss, _ = forward_loss_grad(zero_state(arch), batch)
            assert abs(loss - math.log(c)) < 1e-12

    def test_hand_worked_two_class_case(self):
        # x=(1,0), W=((1,0),(0,0)), b=0, label 0: loss = ln(1+e^-1),
        # dW = ((-p1, 0), (p1, 0)), db = (-p1, p1) with p1 = 1/(1+e).
        state = zero_state(LINEAR_2_2)
        state.params["w"][0, 0] = 1.0
        batch = make_batch([[1.0, 0.0]], [0])
        loss, grads = forward_loss_grad(state, batch)
        p1 = 0.2689414213699951
        assert abs(loss - 0.31326168751822286) < 1e-15
        assert np.allclose(grads["w"], [[-p1, 0.0], [p1, 0.0]], atol=1e-15)
        assert np.allclose(grads["b"], [-p1, p1], atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        arch = Architecture("linear", 8, 4)
        state = init_learner(arch, seed=3)
        batch = make_batch(rng.standard_normal((8, 8)), rng.integers(0, 4, 8))
        _, grads = forward_loss_grad(state, batch)
        numeric = numerical_gradient(state, batch)
        rel = np.linalg.norm(flatten(grads) - flatten(numeric)) / np.linalg.norm(flatten(numeric))
        assert rel <= 1e-5

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        arch = Architecture("mlp", 8, 4, hidden=16)
        state = init_learner(arch, seed=4)
        batch = make_batch(rng.standard_normal((8, 8)), rng.integers(0, 4, 8))
        _, grads = forward_loss_grad(state, batch)
        numeric = numerical_gradient(state, batch)
        rel = np.linalg.norm(flatten(grads) - flatten(numeric)) / np.linalg.norm(flatten(numeric))
        assert rel <= 1e-5

    def test_rejects_bad_batches(self):
        state = zero_state(LINEAR_2_2)
        with pytest.raises(ValueError):
            forward_loss_grad(state, [])
        with pytest.raises(ValueError, match="non-finite"):
            forward_loss_grad(state, make_batch([[np.inf, 0.0]], [0]))
        with pytest.raises(ValueError, match="dimension"):
            forward_loss_grad(state, make_batch([[1.0, 2.0, 3.0]], [0]))

    @pytest.mark.parametrize("label", [-1, 2])
    def test_rejects_a_label_outside_the_classes(self, label):
        with pytest.raises(ValueError, match="^label out of range for this learner$"):
            forward_loss_grad(zero_state(LINEAR_2_2), make_batch([[1.0, 2.0]], [label]))


class TestTrain:
    def test_zero_lr_keeps_parameters(self):
        state = init_learner(LINEAR_2_2, seed=0)
        batch = make_batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        hp = Hyperparams(learning_rate=0.0, epochs=1, decay_epoch=1, batch_size=2)
        out = train(state, batch, hp)
        for k in state.params:
            assert np.array_equal(out.params[k], state.params[k])

    def test_separable_reaches_perfect_train_accuracy(self):
        rng = np.random.default_rng(0)
        x0 = np.array([1.0, 0.0]) + 0.01 * rng.standard_normal((50, 2))
        x1 = np.array([-1.0, 0.0]) + 0.01 * rng.standard_normal((50, 2))
        data = make_batch(np.vstack([x0, x1]), [0] * 50 + [1] * 50)
        state = train(init_learner(LINEAR_2_2, seed=0), data, Hyperparams(learning_rate=1.0))
        x = np.stack([s.features for s in data])
        y = np.array([s.label for s in data])
        assert np.all(predict_batch(state, x) == y)

    def test_loss_non_increasing_without_momentum(self):
        # Convex linear case, lr=0.1, unit-norm features, momentum 0.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((40, 3))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            y = (x[:, 0] > 0).astype(int)
            data = make_batch(x, y)
            state = init_learner(Architecture("linear", 3, 2), seed=seed)
            losses = []
            hp = Hyperparams(learning_rate=0.1, momentum=0.0, batch_size=40,
                             epochs=1, decay_epoch=1, seed=seed)
            for _ in range(30):
                losses.append(forward_loss_grad(state, data)[0])
                state = train(state, data, hp)
            losses.append(forward_loss_grad(state, data)[0])
            diffs = np.diff(losses)
            assert np.all(diffs <= 1e-6)

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(2)
        data = make_batch(rng.standard_normal((30, 2)), rng.integers(0, 2, 30))
        hp = Hyperparams(learning_rate=0.3, epochs=5, decay_epoch=3, batch_size=8, seed=11)
        a = train(init_learner(LINEAR_2_2, seed=1), data, hp)
        b = train(init_learner(LINEAR_2_2, seed=1), data, hp)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_decay_applies_after_decay_epoch(self):
        # Full-batch, momentum 0: epoch 1 steps with lr, epoch 2 with lr*factor.
        data = make_batch([[1.0, 0.0]], [0])
        hp = Hyperparams(learning_rate=0.5, momentum=0.0, batch_size=1,
                         epochs=2, decay_epoch=1, decay_factor=0.1, seed=0)
        start = zero_state(LINEAR_2_2)
        out = train(start, data, hp)
        state = zero_state(LINEAR_2_2)
        for lr in (0.5, 0.05):
            _, grads = forward_loss_grad(state, data)
            params = {k: state.params[k] - lr * grads[k] for k in state.params}
            state = LearnerState(LINEAR_2_2, params, state.velocity)
        for k in out.params:
            assert np.allclose(out.params[k], state.params[k], atol=1e-15)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(init_learner(LINEAR_2_2, seed=0), [], Hyperparams(learning_rate=0.1))

    def test_fit_rejects_bad_arrays(self):
        state = init_learner(LINEAR_2_2, seed=0)
        hp = Hyperparams(learning_rate=0.1)
        with pytest.raises(ValueError, match="empty"):
            fit(state, np.zeros((0, 2)), np.zeros(0, dtype=np.int64), hp)
        with pytest.raises(ValueError, match="dimension"):
            fit(state, np.zeros((3, 3)), np.zeros(3, dtype=np.int64), hp)
        with pytest.raises(ValueError, match="non-finite"):
            fit(state, np.array([[np.nan, 0.0]]), np.zeros(1, dtype=np.int64), hp)

    def test_train_is_fit_on_stacked_samples(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((25, 2)), rng.integers(0, 2, 25)
        hp = Hyperparams(learning_rate=0.3, epochs=3, decay_epoch=2, batch_size=8, seed=5)
        a = train(init_learner(LINEAR_2_2, seed=1), make_batch(x, y), hp)
        b = fit(init_learner(LINEAR_2_2, seed=1), x, y, hp)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        rng = np.random.default_rng(3)
        data = make_batch(rng.standard_normal((30, 2)), rng.integers(0, 2, 30))
        hp = Hyperparams(learning_rate=1e300, epochs=3, decay_epoch=2, batch_size=8)
        with pytest.raises(FloatingPointError, match="diverged"):
            train(init_learner(Architecture("mlp", 2, 2, hidden=16), seed=0), data, hp)

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(learning_rate=0.1, epochs=0)
        with pytest.raises(ValueError):
            Hyperparams(learning_rate=0.1, epochs=5, decay_epoch=6)
        with pytest.raises(ValueError):
            Hyperparams(learning_rate=0.1, momentum=1.0)


def reference_fit(state, x, y, hp):
    """The allocation-based momentum-SGD loop that :func:`fit` must match bit for bit."""
    arch = state.architecture
    params = {k: v.copy() for k, v in state.params.items()}
    velocity = {k: v.copy() for k, v in state.velocity.items()}
    rng = np.random.default_rng([hp.seed, 1])
    n = x.shape[0]
    lr = hp.learning_rate
    for epoch in range(1, hp.epochs + 1):
        if epoch == hp.decay_epoch + 1:
            lr *= hp.decay_factor
        order = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            xb, yb, m = x[idx], y[idx], len(idx)
            if arch.kind == "linear":
                z = xb @ params["w"].T + params["b"]
            else:
                pre = xb @ params["w1"].T + params["b1"]
                hid = np.maximum(pre, 0.0)
                z = hid @ params["w2"].T + params["b2"]
            z_shift = z - z.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(z_shift).sum(axis=1))
            dz = np.exp(z_shift - log_norm[:, None])
            dz[np.arange(m), yb] -= 1.0
            dz /= m
            if arch.kind == "linear":
                grads = {"w": dz.T @ xb, "b": dz.sum(axis=0)}
            else:
                dpre = (dz @ params["w2"]) * (pre > 0.0)
                grads = {"w1": dpre.T @ xb, "b1": dpre.sum(axis=0),
                         "w2": dz.T @ hid, "b2": dz.sum(axis=0)}
            for name, g in grads.items():
                if hp.weight_decay:
                    g = g + hp.weight_decay * params[name]
                velocity[name] = hp.momentum * velocity[name] + g
                params[name] = params[name] - lr * velocity[name]
    return params, velocity


@st.composite
def fit_cases(draw):
    """A start state with non-zero velocity, a dataset and hyperparameters for :func:`fit`."""
    d, c = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    hidden = draw(st.sampled_from([None, 1, 3, 8]))
    arch = Architecture("linear", d, c) if hidden is None else Architecture("mlp", d, c, hidden)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    batch = draw(st.integers(1, 16))  # most draws leave a ragged last batch
    epochs = draw(st.integers(1, 4))
    hp = Hyperparams(
        learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        weight_decay=draw(st.sampled_from([0.0, 0.0, 1e-3, 0.05])),
        batch_size=batch,
        epochs=epochs,
        decay_epoch=draw(st.integers(1, epochs)),
        decay_factor=draw(st.sampled_from([0.1, 1.0])),
        seed=draw(st.integers(0, 1000)),
    )
    start = init_learner(arch, seed=draw(st.integers(0, 1000)))
    velocity = {k: 0.1 * rng.standard_normal(v.shape) for k, v in start.velocity.items()}
    state = LearnerState(arch, start.params, velocity)
    return state, rng.standard_normal((n, d)), rng.integers(0, c, n), hp


def assert_fit_matches_reference(state, x, y, hp):
    params, velocity = reference_fit(state, x, y, hp)
    out = fit(state, x, y, hp)
    assert out.params.keys() == params.keys()
    for k in params:  # bytes, so that signed zeros and NaN payloads count too
        assert out.params[k].tobytes() == params[k].tobytes(), k
        assert out.velocity[k].tobytes() == velocity[k].tobytes(), k


class TestInPlaceFit:
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(fit_cases())
    def test_fit_matches_allocating_reference(self, case):
        assert_fit_matches_reference(*case)

    @pytest.mark.parametrize("arch", ["linear", "mlp:64"])
    def test_fit_matches_reference_at_paper_grid_shapes(self, arch):
        # 3,300 rows of d=128, C=11 in batches of 256: the BLAS kernels of the paper-scale runs.
        rng = np.random.default_rng(11)
        state = init_learner(parse_architecture(arch, 128, 11), seed=2)
        hp = Hyperparams(learning_rate=0.1, weight_decay=1e-3, batch_size=256, epochs=2,
                         decay_epoch=1, seed=5)
        assert_fit_matches_reference(state, rng.standard_normal((3300, 128)),
                                     rng.integers(0, 11, 3300), hp)

    @pytest.mark.parametrize("arch", [LINEAR_2_2, Architecture("mlp", 2, 2, hidden=4)])
    def test_fit_leaves_input_state_unchanged(self, arch):
        rng = np.random.default_rng(7)
        start = init_learner(arch, seed=3)
        velocity = {k: rng.standard_normal(v.shape) for k, v in start.velocity.items()}
        state = LearnerState(arch, start.params, velocity)
        before = {k: (v.tobytes(), state.velocity[k].tobytes()) for k, v in state.params.items()}
        hp = Hyperparams(learning_rate=0.3, weight_decay=1e-3, epochs=3, decay_epoch=2,
                         batch_size=8, seed=1)
        out = fit(state, rng.standard_normal((20, 2)), rng.integers(0, 2, 20), hp)
        for k, (p, v) in before.items():
            assert state.params[k].tobytes() == p and state.velocity[k].tobytes() == v
            assert not np.shares_memory(out.params[k], state.params[k])
            assert not np.shares_memory(out.velocity[k], state.velocity[k])


class TestPredict:
    def test_zero_state_ties_break_low(self):
        state = zero_state(Architecture("linear", 3, 4))
        assert predict_batch(state, np.array([[0.3, -1.0, 2.0]])).tolist() == [0]

    def test_single_class(self):
        state = zero_state(Architecture("linear", 2, 1))
        assert predict_batch(state, np.array([[5.0, -3.0]])).tolist() == [0]

    def test_hand_set_identity_weights(self):
        state = zero_state(LINEAR_2_2)
        state.params["w"][:] = np.eye(2)
        assert predict_batch(state, np.array([[0.3, 0.7]])).tolist() == [1]

    def test_non_finite_rejected(self):
        state = zero_state(LINEAR_2_2)
        with pytest.raises(ValueError):
            predict_batch(state, np.array([[np.nan, 0.0]]))


class TestStrategyStep:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.x, self.y = rng.standard_normal((20, 2)), rng.integers(0, 2, 20)
        self.data = make_batch(self.x, self.y)
        self.hp = Hyperparams(learning_rate=0.2, epochs=2, decay_epoch=1, batch_size=8, seed=3)

    def test_napping_returns_prev_bit_identical(self):
        prev = init_learner(LINEAR_2_2, seed=9)
        out = strategy_step(Strategy.NAPPING, prev, 5, self.x, self.y, self.hp, LINEAR_2_2)
        assert out is prev

    def test_napping_requires_prev_after_first(self):
        with pytest.raises(ValueError):
            strategy_step(Strategy.NAPPING, None, 2, self.x, self.y, self.hp, LINEAR_2_2)

    def test_from_scratch_independent_of_prev(self):
        prev_a = init_learner(LINEAR_2_2, seed=1)
        prev_b = train(prev_a, self.data, self.hp)
        out_a = strategy_step(Strategy.FROM_SCRATCH, prev_a, 3, self.x, self.y, self.hp, LINEAR_2_2)
        out_b = strategy_step(Strategy.FROM_SCRATCH, prev_b, 3, self.x, self.y, self.hp, LINEAR_2_2)
        for k in out_a.params:
            assert np.array_equal(out_a.params[k], out_b.params[k])

    def test_finetuning_zero_lr_equals_prev(self):
        prev = train(init_learner(LINEAR_2_2, seed=2), self.data, self.hp)
        hp0 = Hyperparams(learning_rate=0.0, epochs=1, decay_epoch=1, batch_size=8, seed=3)
        out = strategy_step(Strategy.FINETUNING, prev, 4, self.x, self.y, hp0, LINEAR_2_2)
        for k in prev.params:
            assert np.array_equal(out.params[k], prev.params[k])

    def test_finetuning_requires_prev_after_first(self):
        with pytest.raises(ValueError):
            strategy_step(Strategy.FINETUNING, None, 1, self.x, self.y, self.hp, LINEAR_2_2)


def test_parse_architecture():
    assert parse_architecture("linear", 8, 4) == Architecture("linear", 8, 4)
    assert parse_architecture("mlp:2048", 8, 4).hidden == 2048
    # One spelling per architecture: no bare "mlp", no case folding, no padding.
    for bad in ("cnn", "mlp:x", "mlp", "MLP:4", "Linear", " linear"):
        with pytest.raises(ValueError):
            parse_architecture(bad, 8, 4)


def test_parse_strategy():
    assert parse_strategy("from_scratch") is Strategy.FROM_SCRATCH
    assert parse_strategy("napping") is Strategy.NAPPING
    for bad in ("replay", "from-scratch", "Napping", " finetuning"):
        with pytest.raises(ValueError, match="unknown strategy"):
            parse_strategy(bad)
