"""Tests for the numpy neural substrate: ops, layers, optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers import MLP, Linear, Parameter
from repro.nn.optim import Adam
from repro.nn.tensorops import (
    binary_cross_entropy_with_logits,
    log_sigmoid,
    logit,
    logsumexp,
    one_hot,
    relu,
    sigmoid,
    softmax,
)
from repro.rng import make_rng

finite_arrays = st.lists(
    st.floats(min_value=-50, max_value=50), min_size=1, max_size=16
).map(np.array)


class TestTensorOps:
    def test_sigmoid_extremes(self):
        assert sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)

    @given(finite_arrays)
    def test_log_sigmoid_consistent(self, x):
        assert np.allclose(log_sigmoid(x), np.log(sigmoid(x) + 1e-300),
                           atol=1e-6)

    def test_log_sigmoid_no_overflow(self):
        out = log_sigmoid(np.array([-1e6, 1e6]))
        assert np.isfinite(out).all()

    @given(finite_arrays)
    def test_softmax_sums_to_one(self, x):
        assert softmax(x).sum() == pytest.approx(1.0)

    @given(finite_arrays)
    def test_logsumexp_matches_naive(self, x):
        naive = np.log(np.exp(x - x.max()).sum()) + x.max()
        assert logsumexp(x) == pytest.approx(naive, abs=1e-8)

    def test_logit_inverts_sigmoid(self):
        p = np.array([0.1, 0.5, 0.9])
        assert np.allclose(sigmoid(logit(p)), p)

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        assert np.array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_range_checked(self):
        with pytest.raises(ValueError):
            one_hot(np.array([5]), 3)

    def test_bce_gradient_matches_finite_difference(self):
        rng = make_rng(0, "bce")
        logits = rng.normal(0, 2, 6)
        targets = (rng.random(6) > 0.5).astype(float)
        __, grad = binary_cross_entropy_with_logits(logits, targets)
        eps = 1e-6
        for i in range(6):
            bumped = logits.copy()
            bumped[i] += eps
            up, __ = binary_cross_entropy_with_logits(bumped, targets)
            bumped[i] -= 2 * eps
            down, __ = binary_cross_entropy_with_logits(bumped, targets)
            assert grad[i] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_bce_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            binary_cross_entropy_with_logits(np.zeros(3), np.zeros(4))


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, make_rng(0, "lin"))
        assert layer.forward(np.zeros((2, 4))).shape == (2, 3)

    def test_gradient_check(self):
        rng = make_rng(1, "lin")
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x)
        loss_grad = np.ones_like(out)
        grad_in = layer.backward(loss_grad)
        eps = 1e-6
        # Weight gradient finite difference on one entry.
        analytic = layer.weight.grad[1, 0]
        layer.weight.value[1, 0] += eps
        up = layer.forward(x).sum()
        layer.weight.value[1, 0] -= 2 * eps
        down = layer.forward(x).sum()
        assert analytic == pytest.approx((up - down) / (2 * eps), abs=1e-4)
        # Input gradient: d sum(xW+b) / dx = W row sums.
        assert np.allclose(grad_in, layer.weight.value.sum(axis=1))

    def test_backward_before_forward_raises(self):
        layer = Linear(2, 2, make_rng(0, "lin"))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestMLP:
    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4], make_rng(0, "mlp"))

    def test_can_fit_xor(self):
        rng = make_rng(2, "xor")
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        mlp = MLP([2, 8, 1], rng)
        optimizer = Adam(mlp.parameters(), lr=5e-2)
        for __ in range(400):
            optimizer.zero_grad()
            logits = mlp.forward(x)[:, 0]
            __, grad = binary_cross_entropy_with_logits(logits, y)
            mlp.backward(grad[:, np.newaxis])
            optimizer.step()
        predictions = mlp.forward(x)[:, 0] > 0
        assert np.array_equal(predictions, y.astype(bool))


class TestModule:
    def test_state_dict_roundtrip(self):
        mlp = MLP([3, 4, 1], make_rng(3, "m"))
        state = mlp.state_dict()
        clone = MLP([3, 4, 1], make_rng(4, "m2"))
        clone.load_state_dict(state)
        x = np.ones((1, 3))
        assert np.allclose(mlp.forward(x), clone.forward(x))

    def test_load_missing_param_raises(self):
        mlp = MLP([3, 4, 1], make_rng(3, "m"))
        with pytest.raises(KeyError):
            mlp.load_state_dict({})

    def test_load_shape_mismatch_raises(self):
        mlp = MLP([3, 4, 1], make_rng(3, "m"))
        state = {name: np.zeros(2) for name in mlp.state_dict()}
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_copy_is_independent(self):
        mlp = MLP([2, 2], make_rng(5, "m"))
        clone = mlp.copy()
        clone.layers[0].weight.value += 1.0
        assert not np.allclose(mlp.layers[0].weight.value,
                               clone.layers[0].weight.value)


class TestOptimizers:
    def _quadratic_param(self):
        return Parameter("w", np.array([5.0, -3.0]))

    def test_adam_descends(self):
        param = self._quadratic_param()
        optimizer = Adam([param], lr=0.3)
        for __ in range(200):
            param.zero_grad()
            param.grad += 2 * param.value
            optimizer.step()
        assert np.abs(param.value).max() < 1e-2

    def test_weight_decay_shrinks(self):
        param = Parameter("w", np.array([1.0]))
        optimizer = Adam([param], lr=0.1, weight_decay=1.0)
        for __ in range(50):
            param.zero_grad()
            optimizer.step()
        assert abs(param.value[0]) < 1.0

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)
        with pytest.raises(ValueError):
            Adam([], lr=-1.0)
