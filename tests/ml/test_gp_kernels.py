"""Tests for GP kernels and Gaussian-process regression."""

import numpy as np
import pytest

from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import (
    ConstantKernel,
    HammingKernel,
    Kernel,
    Matern52Kernel,
    MixedKernel,
    RBFKernel,
    _mismatch_counts,
)


class TestKernels:
    def test_rbf_diagonal_is_one(self):
        X = np.random.default_rng(0).random((5, 3))
        k = RBFKernel(0.5)
        np.testing.assert_allclose(np.diag(k(X, X)), 1.0)
        np.testing.assert_allclose(k.diag(X), 1.0)

    def test_rbf_decays_with_distance(self):
        k = RBFKernel(0.5)
        a = np.zeros((1, 2))
        near = np.full((1, 2), 0.1)
        far = np.full((1, 2), 2.0)
        assert k(a, near)[0, 0] > k(a, far)[0, 0]

    def test_matern_close_to_rbf_for_smooth_points(self):
        X = np.random.default_rng(1).random((4, 2))
        r = RBFKernel(1.0)(X, X)
        m = Matern52Kernel(1.0)(X, X)
        assert np.abs(r - m).max() < 0.1

    def test_hamming_counts_differences(self):
        k = HammingKernel(1.0)
        a = np.array([[0.25, 0.75]])
        same = np.array([[0.25, 0.75]])
        one_diff = np.array([[0.75, 0.75]])
        assert k(a, same)[0, 0] == pytest.approx(1.0)
        assert k(a, one_diff)[0, 0] == pytest.approx(np.exp(-1.0))

    def test_mixed_kernel_factorizes(self):
        k = MixedKernel([0], [1])
        a = np.array([[0.2, 0.25]])
        b = np.array([[0.2, 0.75]])  # same continuous, different categorical
        expected = Matern52Kernel(0.5, dims=[0])(a, b) * HammingKernel(1.0, dims=[1])(a, b)
        np.testing.assert_allclose(k(a, b), expected)

    def test_mixed_kernel_degenerate_dims(self):
        k_cont = MixedKernel([0, 1], [])
        k_cat = MixedKernel([], [0, 1])
        X = np.array([[0.1, 0.9], [0.3, 0.2]])
        assert k_cont(X, X).shape == (2, 2)
        assert k_cat(X, X).shape == (2, 2)
        with pytest.raises(ValueError):
            MixedKernel([], [])

    def test_composite_theta_roundtrip(self):
        k = ConstantKernel(2.0) * RBFKernel(0.3) * HammingKernel(1.0)
        theta = k.theta
        assert len(theta) == len(k.bounds) == 3
        k.theta = theta + 0.1
        np.testing.assert_allclose(k.theta, theta + 0.1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RBFKernel(0.0)
        with pytest.raises(ValueError):
            ConstantKernel(-1.0)


DIAG_KERNELS = {
    "constant": lambda: ConstantKernel(0.37),
    "constant_int": lambda: ConstantKernel(3),
    "constant*rbf": lambda: ConstantKernel(2.5) * RBFKernel(0.5),
    "constant*mixed": lambda: ConstantKernel(0.8) * MixedKernel([0, 1], [2, 3]),
    "constant*matern": lambda: ConstantKernel(1.7) * Matern52Kernel(0.3),
}


class TestTemporaryFreeKernels:
    """Kernel paths that skip a temporary, against the computation they replace."""

    @pytest.mark.parametrize("name", sorted(DIAG_KERNELS))
    def test_constant_diag_matches_base_class(self, name, monkeypatch):
        """``ConstantKernel.diag`` no longer reads the diagonal of an n x n
        ``self(X, X)``; the result keeps its bytes and dtype."""
        X = np.random.default_rng(6).random((50, 4))
        got = DIAG_KERNELS[name]().diag(X)
        monkeypatch.setattr(ConstantKernel, "diag", Kernel.diag)
        want = DIAG_KERNELS[name]().diag(X)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_hamming_counts_match_broadcast(self):
        """Column-by-column counting equals the (m, n, d) broadcast it
        replaces: on-grid values, values within and beyond 1e-12 of each
        other, a difference of exactly 1e-12, and NaN (a match)."""
        grid = (np.arange(4) + 0.5) / 4.0
        rng = np.random.default_rng(7)
        A = rng.choice(grid, (60, 9))
        B = rng.choice(grid, (17, 9))
        A[0, 0] = B[0, 0] + 4e-13
        A[1, 1] = B[1, 1] + 3e-12
        A[2, 2] = B[2, 2] - 2e-11
        A[3, 3], B[3, 3] = 1e-12, 0.0
        A[4, 4] = np.nan
        B[5, 5] = np.nan
        A[6, 6] = B[6, 6] = np.nan
        want = (np.abs(A[:, None, :] - B[None, :, :]) > 1e-12).sum(axis=2)
        got = _mismatch_counts(A, B)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        kernel = HammingKernel(0.7, dims=[1, 3, 4, 5, 6])
        reference = (np.abs(A[:, None, [1, 3, 4, 5, 6]] - B[None, :, [1, 3, 4, 5, 6]]) > 1e-12)
        expected = np.exp(-reference.sum(axis=2) / 0.7)
        assert kernel(A, B).tobytes() == expected.tobytes()


class TestGaussianProcess:
    def test_interpolates_training_data(self):
        rng = np.random.default_rng(0)
        X = rng.random((30, 2))
        y = np.sin(4 * X[:, 0]) + X[:, 1]
        gp = GaussianProcessRegressor(noise=1e-8, optimize_hyperparams=False)
        gp.fit(X, y)
        np.testing.assert_allclose(gp.predict(X), y, atol=1e-3)

    def test_uncertainty_grows_away_from_data(self):
        X = np.array([[0.5, 0.5]])
        gp = GaussianProcessRegressor(
            kernel=RBFKernel(0.2), noise=1e-6, optimize_hyperparams=False
        )
        gp.fit(X, np.array([1.0]))
        __, near_std = gp.predict(np.array([[0.5, 0.51]]), return_std=True)
        __, far_std = gp.predict(np.array([[0.0, 0.0]]), return_std=True)
        assert far_std[0] > near_std[0]

    def test_hyperparameter_optimization_improves_lml(self):
        rng = np.random.default_rng(1)
        X = rng.random((40, 1))
        y = np.sin(10 * X[:, 0])
        fixed = GaussianProcessRegressor(
            kernel=RBFKernel(5.0), noise=1e-4, optimize_hyperparams=False
        ).fit(X, y)
        tuned = GaussianProcessRegressor(
            kernel=RBFKernel(5.0), noise=1e-4, optimize_hyperparams=True, seed=0
        ).fit(X, y)
        assert tuned.log_marginal_likelihood_ >= fixed.log_marginal_likelihood_

    def test_normalization_invariance_of_fit_quality(self):
        rng = np.random.default_rng(2)
        X = rng.random((30, 2))
        y = 1e6 * (X[:, 0] + X[:, 1])
        gp = GaussianProcessRegressor(noise=1e-6, optimize_hyperparams=False).fit(X, y)
        pred = gp.predict(X)
        assert np.abs(pred - y).max() / 1e6 < 0.01

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.ones((1, 2)))

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.ones((3, 2)), np.ones(4))

    def test_predict_with_std_alias(self):
        X = np.random.default_rng(0).random((10, 2))
        gp = GaussianProcessRegressor(optimize_hyperparams=False).fit(X, X.sum(axis=1))
        m1, s1 = gp.predict_with_std(X[:3])
        m2, s2 = gp.predict(X[:3], return_std=True)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(s1, s2)
