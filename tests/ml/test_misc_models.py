"""Tests for KNN, SVR, model selection, and the neural substrate."""

import numpy as np
import pytest

from repro.ml.metrics import r2_score
from repro.ml.model_selection import KFold
from repro.ml.neighbors import KNNRegressor
from repro.ml.neural import MLP, Adam, DenseLayer
from repro.ml.svm import EpsilonSVR, NuSVR


class TestKNN:
    def test_one_neighbor_memorizes(self, small_regression_data):
        X, y = small_regression_data
        knn = KNNRegressor(n_neighbors=1).fit(X, y)
        np.testing.assert_allclose(knn.predict(X), y)

    def test_distance_weighting_beats_uniform_on_smooth_target(self):
        rng = np.random.default_rng(0)
        X = rng.random((300, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        Xq = rng.random((100, 2))
        yq = np.sin(3 * Xq[:, 0]) + Xq[:, 1] ** 2
        uni = KNNRegressor(8, weights="uniform").fit(X, y)
        dist = KNNRegressor(8, weights="distance").fit(X, y)
        assert r2_score(yq, dist.predict(Xq)) >= r2_score(yq, uni.predict(Xq)) - 0.02

    def test_k_larger_than_n(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 2.0])
        knn = KNNRegressor(n_neighbors=10).fit(X, y)
        assert knn.predict(np.array([[0.5]]))[0] == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KNNRegressor(0)
        with pytest.raises(ValueError):
            KNNRegressor(3, weights="bogus")


class TestSVR:
    def test_fits_nonlinear_function(self):
        rng = np.random.default_rng(0)
        X = rng.random((150, 2))
        y = np.sin(4 * X[:, 0]) * X[:, 1]
        svr = EpsilonSVR(C=10.0, epsilon=0.02).fit(X, y)
        assert r2_score(y, svr.predict(X)) > 0.9

    def test_epsilon_tube_controls_support_vectors(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 1))
        y = X.ravel()
        tight = EpsilonSVR(C=10.0, epsilon=0.001).fit(X, y)
        loose = EpsilonSVR(C=10.0, epsilon=0.5).fit(X, y)
        n_support = [np.count_nonzero(np.abs(m.dual_coef_) > 1e-10) for m in (loose, tight)]
        assert n_support[0] <= n_support[1]

    def test_nusvr_adapts_tube(self):
        rng = np.random.default_rng(2)
        X = rng.random((120, 2))
        y = 3 * X[:, 0] + rng.normal(0, 0.05, 120)
        model = NuSVR(C=10.0, nu=0.4).fit(X, y)
        assert model.epsilon > 0.0
        assert r2_score(y, model.predict(X)) > 0.8

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EpsilonSVR(C=0.0)
        with pytest.raises(ValueError):
            EpsilonSVR(epsilon=-0.1)
        with pytest.raises(ValueError):
            NuSVR(nu=0.0)
        with pytest.raises(ValueError):
            EpsilonSVR(gamma=-1.0).fit(np.ones((2, 1)), np.ones(2))


class TestModelSelection:
    def test_kfold_partitions_everything(self):
        folds = list(KFold(5, seed=0).split(23))
        all_test = np.concatenate([test for __, test in folds])
        assert sorted(all_test.tolist()) == list(range(23))
        for train, test in folds:
            assert set(train).isdisjoint(test)

    def test_kfold_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            list(KFold(5).split(3))
        with pytest.raises(ValueError):
            KFold(1)


class TestNeural:
    def test_dense_layer_gradient_check(self):
        """Finite-difference check of a single dense layer."""
        rng = np.random.default_rng(0)
        layer = DenseLayer(3, 2, "tanh", rng)
        x = rng.random((4, 3))
        out = layer.forward(x)
        loss = float((out**2).sum())
        layer.zero_grad()
        layer.backward(2.0 * out)
        eps = 1e-6
        for idx in [(0, 0), (2, 1)]:
            layer.W[idx] += eps
            loss_plus = float((layer.forward(x) ** 2).sum())
            layer.W[idx] -= eps
            numeric = (loss_plus - loss) / eps
            assert layer.dW[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_mlp_learns_xor_like_function(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        net = MLP([2, 32, 32, 1], ["relu", "relu", "sigmoid"], seed=0)
        opt = Adam(net.params, lr=5e-3)
        for __ in range(600):
            net.zero_grad()
            pred = net.forward(X).ravel()
            net.backward(((pred - y) / len(X))[:, None])
            opt.step(net.grads)
        acc = np.mean((net.forward(X).ravel() > 0.5) == (y > 0.5))
        assert acc > 0.9

    def test_input_gradients_flow(self):
        net = MLP([3, 8, 1], ["relu", "linear"], seed=1)
        x = np.random.default_rng(2).random((5, 3))
        net.forward(x)
        grad_in = net.backward(np.ones((5, 1)))
        assert grad_in.shape == (5, 3)
        assert np.any(grad_in != 0)

    def test_weight_copy_and_soft_update(self):
        a = MLP([2, 4, 1], ["relu", "linear"], seed=0)
        b = MLP([2, 4, 1], ["relu", "linear"], seed=1)
        b.copy_weights_from(a, tau=1.0)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa, pb)
        a.params[0][...] += 1.0
        b.copy_weights_from(a, tau=0.5)
        assert not np.array_equal(a.params[0], b.params[0])

    def test_get_set_weights_roundtrip(self):
        a = MLP([2, 4, 1], ["tanh", "linear"], seed=0)
        weights = a.get_weights()
        b = MLP([2, 4, 1], ["tanh", "linear"], seed=9)
        b.set_weights(weights)
        x = np.random.default_rng(0).random((3, 2))
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MLP([2], ["relu"])
        with pytest.raises(ValueError):
            MLP([2, 3], ["relu", "relu"])
        a = MLP([2, 3, 1], ["relu", "linear"], seed=0)
        b = MLP([2, 4, 1], ["relu", "linear"], seed=0)
        with pytest.raises(ValueError):
            b.copy_weights_from(a)

    def test_adam_decreases_quadratic(self):
        w = np.array([5.0, -3.0])
        opt = Adam([w], lr=0.1)
        for __ in range(200):
            opt.step([2.0 * w])
        assert np.linalg.norm(w) < 0.1
