"""Numerical-robustness tests for the GP implementation."""

import numpy as np
import pytest
from scipy import optimize
from scipy.linalg import LinAlgError

from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import ConstantKernel, HammingKernel, RBFKernel


class TestCholeskyRobustness:
    def test_duplicate_points_need_jitter(self):
        """Identical rows make the kernel matrix singular.  With ``noise=0``
        the 1e-8 diagonal floor plus the ladder's first rung (another 1e-8)
        keep it positive definite, so the first factorization succeeds;
        ``TestFailurePaths`` covers the later rungs."""
        X = np.vstack([np.full((5, 2), 0.3), np.full((5, 2), 0.7)])
        y = np.concatenate([np.zeros(5), np.ones(5)])
        gp = GaussianProcessRegressor(
            kernel=RBFKernel(0.5), noise=0.0, optimize_hyperparams=False
        )
        gp.fit(X, y)
        pred = gp.predict(np.array([[0.3, 0.3], [0.7, 0.7]]))
        assert pred[0] < pred[1]
        diagonal = np.diag(gp._chol @ gp._chol.T) - np.diag(RBFKernel(0.5)(X, X))
        np.testing.assert_allclose(diagonal, 2e-8, rtol=0, atol=1e-12)

    def test_huge_lengthscale_constant_kernel(self):
        """A near-constant covariance matrix must still factorize."""
        rng = np.random.default_rng(0)
        X = rng.random((20, 3))
        y = rng.normal(size=20)
        gp = GaussianProcessRegressor(
            kernel=RBFKernel(100.0), noise=1e-6, optimize_hyperparams=False
        )
        gp.fit(X, y)
        assert np.isfinite(gp.predict(X)).all()

    def test_pure_hamming_gp_on_categorical_grid(self):
        """GP over a purely categorical (unit-coded) space."""
        # two binary knobs -> 4 cells at unit midpoints
        cells = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
        y = np.array([0.0, 1.0, 1.0, 2.0])
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * HammingKernel(1.0),
            noise=1e-6,
            optimize_hyperparams=False,
        )
        gp.fit(cells, y)
        pred = gp.predict(cells)
        assert np.argmax(pred) == 3 and np.argmin(pred) == 0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(noise=-1.0)

    def test_single_point_fit(self):
        gp = GaussianProcessRegressor(optimize_hyperparams=False)
        gp.fit(np.array([[0.5]]), np.array([2.0]))
        mean, std = gp.predict(np.array([[0.5], [0.9]]), return_std=True)
        assert mean[0] == pytest.approx(2.0, abs=1e-3)
        assert std[1] > std[0]

    def test_lml_finite_after_fit(self):
        rng = np.random.default_rng(2)
        X = rng.random((15, 2))
        gp = GaussianProcessRegressor(optimize_hyperparams=True, n_restarts=1, seed=0)
        gp.fit(X, X.sum(axis=1))
        assert np.isfinite(gp.log_marginal_likelihood_)


class TestFailurePaths:
    """Paths no fit on a kernel of ``repro.ml.kernels`` reaches: covariances
    that are not positive definite, and non-finite inputs.  The non-definite
    kernels are in ``conftest.py``."""

    def test_ladder_factorizes_slightly_indefinite_kernel(self, indefinite_table):
        kernel, X, table = indefinite_table
        gp = GaussianProcessRegressor(kernel=kernel, noise=0.0, optimize_hyperparams=False)
        gp.fit(X, np.arange(8.0) % 3)
        # The first rung adds 2e-8 to an eigenvalue of -5e-8; the second
        # adds 1.1e-7 and factorizes.
        diagonal = np.diag(gp._chol @ gp._chol.T) - np.diag(table)
        np.testing.assert_allclose(diagonal, 1.1e-7, rtol=0, atol=1e-12)
        mean, std = gp.predict(X, return_std=True)
        assert np.isfinite(mean).all() and np.isfinite(std).all()

    def test_indefinite_thetas_score_minus_inf(self, shifted_diagonal_kernel, monkeypatch):
        """Some likelihoods of the search are -inf; the fit still ends at
        the best finite result."""
        runs = []
        minimize = optimize.minimize

        def recording_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            runs.append(result)
            return result

        monkeypatch.setattr("repro.ml.gp.optimize.minimize", recording_minimize)

        class RecordingGP(GaussianProcessRegressor):
            def _lml(self, P, y):
                value = super()._lml(P, y)
                self.evaluated.append((self.kernel.theta.copy(), value))
                return value

        rng = np.random.default_rng(1)
        X = rng.random((12, 2))
        gp = RecordingGP(kernel=shifted_diagonal_kernel(), noise=0.0, n_restarts=1, seed=1)
        gp.evaluated = []
        gp.fit(X, np.sin(3.0 * X[:, 0]) + X[:, 1])

        assert any(value == float("-inf") for _, value in gp.evaluated)
        start_value = gp.evaluated[0][1]
        finite = [r for r in runs if np.isfinite(r.fun) and -r.fun > start_value]
        assert finite
        best = min(finite, key=lambda r: r.fun)
        np.testing.assert_array_equal(gp.kernel.theta, best.x)
        assert np.isfinite(gp.log_marginal_likelihood_)

    def test_never_definite_kernel_exhausts_the_ladder(self, negative_kernel):
        X = np.random.default_rng(2).random((6, 2))
        gp = GaussianProcessRegressor(kernel=negative_kernel(), noise=0.0)
        message = "^1-th leading minor of the array is not positive definite$"
        with pytest.raises(LinAlgError, match=message):
            gp.fit(X, X[:, 0])

    @pytest.mark.parametrize("optimize_hyperparams", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_training_data_raises(self, where, bad, optimize_hyperparams):
        rng = np.random.default_rng(3)
        X = rng.random((10, 2))
        y = X.sum(axis=1)
        if where == "X":
            X[4, 1] = bad
        else:
            y[4] = bad
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5),
            optimize_hyperparams=optimize_hyperparams,
            seed=0,
        )
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            gp.fit(X, y)

    def test_non_finite_entry_lapack_would_not_read(self, table_kernel):
        """The whole covariance is checked, as scipy checks it, although the
        factorization reads only its lower triangle."""
        table = np.eye(4) + 0.1
        table[0, 3] = np.nan
        gp = GaussianProcessRegressor(
            kernel=table_kernel(table), noise=0.0, optimize_hyperparams=False
        )
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            gp.fit(np.arange(4.0)[:, None], np.arange(4.0))

    def test_non_finite_test_rows(self):
        rng = np.random.default_rng(4)
        X = rng.random((10, 2))
        gp = GaussianProcessRegressor(kernel=ConstantKernel(1.0) * RBFKernel(0.5), seed=0)
        gp.fit(X, X.sum(axis=1))
        X_test = rng.random((5, 2))
        X_test[2, 0] = np.nan
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            gp.predict(X_test, return_std=True)
        mean = gp.predict(X_test)
        assert np.isnan(mean[2])
        assert np.isfinite(np.delete(mean, 2)).all()

    def test_ignored_non_finite_column(self):
        """A kernel restricted by ``dims`` never sees the other columns."""
        rng = np.random.default_rng(5)
        X = rng.random((10, 3))
        X[:, 2] = np.nan
        X[3, 2] = np.inf
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5, dims=[0, 1]), n_restarts=1, seed=0
        )
        gp.fit(X, X[:, 0] - X[:, 1])
        mean, std = gp.predict(X[:4], return_std=True)
        assert np.isfinite(mean).all() and np.isfinite(std).all()
