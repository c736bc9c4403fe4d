"""Neural-network library: gradient checks against finite differences,
optimizer behaviour, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.nn.layers import Dense, ReLU
from repro.rl.nn.loss import huber_loss, mse_loss
from repro.rl.nn.net import DuelingQNetwork, MLPQNetwork
from repro.rl.nn.opt import SGD, Adam


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        f_plus = f()
        x[idx] = old - eps
        f_minus = f()
        x[idx] = old
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


@pytest.fixture()
def net_rng():
    return np.random.default_rng(42)


class TestDense:
    def test_forward_shape(self, net_rng):
        layer = Dense(5, 3, net_rng)
        out = layer.forward(np.ones((4, 5)))
        assert out.shape == (4, 3)

    def test_gradient_check(self, net_rng):
        layer = Dense(4, 3, net_rng)
        x = net_rng.normal(size=(6, 4))
        target = net_rng.normal(size=(6, 3))

        def loss_fn():
            out = layer.forward(x, train=False)
            return 0.5 * np.sum((out - target) ** 2)

        out = layer.forward(x, train=True)
        layer.zero_grad()
        grad_in = layer.backward(out - target)
        num_dW = numerical_grad(loss_fn, layer.W)
        num_db = numerical_grad(loss_fn, layer.b)
        assert np.allclose(layer.dW, num_dW, atol=1e-5)
        assert np.allclose(layer.db, num_db, atol=1e-5)
        num_dx = numerical_grad(loss_fn, x)
        assert np.allclose(grad_in, num_dx, atol=1e-5)

    def test_grads_accumulate_until_zeroed(self, net_rng):
        layer = Dense(3, 2, net_rng)
        x = np.ones((2, 3))
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        first = layer.dW.copy()
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        assert np.allclose(layer.dW, 2 * first)
        layer.zero_grad()
        assert not layer.dW.any()

    def test_bad_dims_rejected(self, net_rng):
        with pytest.raises(ValueError):
            Dense(0, 3, net_rng)

    def test_backward_before_forward_raises(self, net_rng):
        layer = Dense(3, 2, net_rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


class TestReLU:
    def test_forward_clamps(self):
        relu = ReLU()
        out = relu.forward(np.asarray([[-1.0, 0.0, 2.0]]))
        assert np.allclose(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks(self):
        relu = ReLU()
        relu.forward(np.asarray([[-1.0, 3.0]]))
        grad = relu.backward(np.asarray([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])


class TestLosses:
    def test_mse_value_and_grad(self):
        pred = np.asarray([1.0, 2.0])
        target = np.asarray([0.0, 0.0])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(2.5)
        assert np.allclose(grad, [1.0, 2.0])

    def test_huber_quadratic_region(self):
        pred = np.asarray([0.5])
        target = np.asarray([0.0])
        loss, grad = huber_loss(pred, target)
        assert loss == pytest.approx(0.125)
        assert np.allclose(grad, [0.5])

    def test_huber_linear_region(self):
        pred = np.asarray([3.0])
        target = np.asarray([0.0])
        loss, grad = huber_loss(pred, target)
        assert loss == pytest.approx(2.5)
        assert np.allclose(grad, [1.0])

    def test_huber_gradient_check(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=8) * 2
        target = rng.normal(size=8)
        _, grad = huber_loss(pred, target)

        def f():
            return huber_loss(pred, target)[0]

        assert np.allclose(grad, numerical_grad(f, pred), atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            huber_loss(np.zeros(2), np.zeros(3))


class TestNetworks:
    @pytest.mark.parametrize("cls", [MLPQNetwork, DuelingQNetwork])
    def test_forward_shape(self, cls, net_rng):
        net = cls(12, 5, 16, net_rng)
        out = net.forward(np.ones((3, 12)))
        assert out.shape == (3, 5)

    @pytest.mark.parametrize("cls", [MLPQNetwork, DuelingQNetwork])
    def test_full_gradient_check(self, cls, net_rng):
        net = cls(6, 4, 8, net_rng)
        x = net_rng.normal(size=(5, 6))
        target = net_rng.normal(size=(5, 4))

        def loss_fn():
            return 0.5 * np.sum((net.forward(x, train=False) - target) ** 2)

        out = net.forward(x, train=True)
        net.zero_grad()
        net.backward(out - target)
        for param, grad in zip(net.params(), net.grads()):
            assert np.allclose(grad, numerical_grad(loss_fn, param), atol=1e-4)

    def test_dueling_mean_subtraction(self, net_rng):
        """Q = V + A - mean(A): adding a constant to A leaves Q unchanged."""
        net = DuelingQNetwork(6, 4, 8, net_rng)
        x = net_rng.normal(size=(2, 6))
        q_before = net.forward(x, train=False)
        net.adv_head.b += 7.0  # constant advantage shift
        q_after = net.forward(x, train=False)
        assert np.allclose(q_before, q_after)

    def test_copy_from_and_state_dict(self, net_rng):
        a = MLPQNetwork(6, 3, 8, net_rng)
        b = MLPQNetwork(6, 3, 8, np.random.default_rng(7))
        x = np.ones((1, 6))
        assert not np.allclose(a.forward(x, False), b.forward(x, False))
        b.copy_from(a)
        assert np.allclose(a.forward(x, False), b.forward(x, False))
        state = a.state_dict()
        c = MLPQNetwork(6, 3, 8, np.random.default_rng(9))
        c.load_state_dict(state)
        assert np.allclose(a.forward(x, False), c.forward(x, False))

    def test_load_state_dict_shape_mismatch(self, net_rng):
        a = MLPQNetwork(6, 3, 8, net_rng)
        b = MLPQNetwork(6, 3, 16, net_rng)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_q_values_single_obs(self, net_rng):
        net = MLPQNetwork(6, 3, 8, net_rng)
        q = net.q_values(np.zeros(6))
        assert q.shape == (3,)


class TestQValuesKernel:
    """``q_values`` multiplies only the first-layer columns some row sets;
    it must agree with the dense ``forward`` at every batch size and
    density, for the float32 bit vectors the scheduler sends and for real
    inputs alike."""

    OBS, ACTIONS, HIDDEN = 40, 7, 16

    @settings(max_examples=80, deadline=None)
    @given(
        cls=st.sampled_from([MLPQNetwork, DuelingQNetwork]),
        batch=st.integers(1, 64),
        density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        kind=st.sampled_from(["bits", "real", "real32"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_forward(self, cls, batch, density, kind, seed):
        rng = np.random.default_rng(seed)
        net = cls(self.OBS, self.ACTIONS, self.HIDDEN, rng)
        shape = (batch, self.OBS)
        values = np.ones(shape) if kind == "bits" else rng.normal(0.0, 3.0, shape)
        x = np.where(rng.random(shape) < density, values, 0.0)
        if kind != "real":
            x = x.astype(np.float32)
        q = net.q_values(x)
        assert q.shape == (batch, self.ACTIONS)
        dense = net.forward(x.astype(np.float64), train=False)
        np.testing.assert_allclose(q, dense, rtol=1e-12, atol=1e-12)
        for row in range(batch):
            single = net.q_values(x[row])
            assert single.shape == (self.ACTIONS,)
            np.testing.assert_array_equal(single, net.q_values(x[row : row + 1])[0])

    @pytest.mark.parametrize("cls", [MLPQNetwork, DuelingQNetwork])
    @pytest.mark.parametrize("width", [OBS - 1, OBS + 1])
    @pytest.mark.parametrize("rows", [None, 1, 5])
    def test_wrong_width_raises(self, cls, width, rows, net_rng):
        net = cls(self.OBS, self.ACTIONS, self.HIDDEN, net_rng)
        shape = (width,) if rows is None else (rows, width)
        with pytest.raises(ValueError, match="observations"):
            net.q_values(np.ones(shape))

    def test_other_ranks_raise(self, net_rng):
        net = MLPQNetwork(self.OBS, self.ACTIONS, self.HIDDEN, net_rng)
        for shape in [(), (2, 3, self.OBS)]:
            with pytest.raises(ValueError, match="observations"):
                net.q_values(np.ones(shape))


class TestOptimizers:
    def _quadratic_descent(self, opt, steps=200):
        """Minimize ||x - 3||^2 from 0; returns final x."""
        x = np.zeros(4)
        for _ in range(steps):
            grad = 2 * (x - 3.0)
            opt.step([x], [grad])
        return x

    def test_sgd_converges(self):
        x = self._quadratic_descent(SGD(lr=0.1))
        assert np.allclose(x, 3.0, atol=1e-3)

    def test_sgd_momentum_converges(self):
        x = self._quadratic_descent(SGD(lr=0.05, momentum=0.9))
        assert np.allclose(x, 3.0, atol=1e-2)

    def test_adam_converges(self):
        x = self._quadratic_descent(Adam(lr=0.1), steps=400)
        assert np.allclose(x, 3.0, atol=1e-2)

    def test_adam_grad_clip(self):
        opt = Adam(lr=0.1, grad_clip=1.0)
        x = np.zeros(1)
        opt.step([x], [np.asarray([1e9])])
        # First Adam step magnitude is ~lr regardless of raw grad size.
        assert abs(x[0]) <= 0.11

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            SGD(lr=-1.0)
        with pytest.raises(ValueError):
            SGD(lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Adam(lr=0.0)
