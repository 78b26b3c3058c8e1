"""Distance caching, derived LML, hyperparameter-fit regressions, posterior
short-circuit — the GP's bit-identical implementation-overhead savings.

The reference for the distance cache is a kernel call without a
:class:`KernelCache`; no option of the GP selects it, so the tests
build it themselves."""

import numpy as np
import pytest

from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import (
    ConstantKernel,
    HammingKernel,
    Matern52Kernel,
    MixedKernel,
    RBFKernel,
)
from repro.perf.cache import KernelCache


def _data(seed=0, n=20, d=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(3.0 * X[:, 0]) - X[:, 2] + 0.1 * rng.standard_normal(n)
    return X, y


KERNELS = {
    "rbf": lambda: ConstantKernel(1.0) * RBFKernel(0.5),
    "matern": lambda: ConstantKernel(1.0) * Matern52Kernel(0.4),
    "mixed": lambda: ConstantKernel(1.0) * MixedKernel([0, 1, 2], [3, 4]),
}


class TestBitIdentity:
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_cached_fit_is_bit_identical(self, kernel_name, monkeypatch):
        """The cache must not perturb a kernel matrix, the hyperparameter
        search trajectory, the resulting theta, or predictions — byte for
        byte against kernel calls that get no cache."""
        X, y = _data()
        # A cache filled at one theta serves the next theta's matrix.
        kernel = KERNELS[kernel_name]()
        cache = KernelCache()
        kernel(X, X, cache)
        kernel.theta = kernel.theta + 0.3
        cached = kernel(X, X, cache)
        assert cache.hits > 0
        assert cached.tobytes() == kernel(X, X).tobytes()

        results = []
        for reference in (False, True):
            if reference:
                monkeypatch.setattr("repro.ml.gp.KernelCache", lambda: None)
            gp = GaussianProcessRegressor(
                kernel=KERNELS[kernel_name](), noise=1e-4, n_restarts=1, seed=123
            )
            gp.fit(X, y)
            mean, std = gp.predict(X[:7] + 0.01, return_std=True)
            results.append(
                (
                    gp.kernel.theta.tobytes(),
                    gp.log_marginal_likelihood_,
                    mean.tobytes(),
                    std.tobytes(),
                )
            )
        assert results[0] == results[1]

    def test_cache_is_actually_used(self):
        X, y = _data(n=15)
        cache = KernelCache()
        kernel = ConstantKernel(1.0) * RBFKernel(0.5)
        kernel(X, X, cache)
        assert cache.misses == 1 and cache.hits == 0
        kernel.theta = kernel.theta + 0.1  # new theta, same distances
        kernel(X, X, cache)
        assert cache.misses == 1 and cache.hits == 1


class TestKernelCache:
    def test_get_memoizes_by_key(self):
        cache = KernelCache()
        calls = []

        def build():
            calls.append(1)
            return np.arange(3.0)

        first = cache.get("k", build)
        second = cache.get("k", build)
        assert first is second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        cache.get("k", build)
        assert len(calls) == 2


class TestFitHyperparams:
    def test_incumbent_lml_evaluated_once(self):
        """L-BFGS-B re-evaluates its start point; the memo must absorb the
        duplicate so the incumbent costs exactly one O(n^3) evaluation."""
        X, y = _data(n=12)

        class CountingGP(GaussianProcessRegressor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.eval_thetas = []

            def _lml(self, X, y, cache=None):
                self.eval_thetas.append(self.kernel.theta.tobytes())
                return super()._lml(X, y, cache)

        gp = CountingGP(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5), noise=1e-4, n_restarts=1, seed=0
        )
        incumbent = gp.kernel.theta.tobytes()
        gp.fit(X, y)
        assert gp.eval_thetas.count(incumbent) == 1

    def test_theta_restored_when_all_results_non_finite(self, monkeypatch):
        """If every L-BFGS-B run returns a non-finite objective, the kernel
        must be left at the incumbent theta — not at the search's last
        evaluated point."""
        from scipy import optimize

        X, y = _data(n=10)
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5), noise=1e-4, n_restarts=2, seed=9
        )
        incumbent = gp.kernel.theta.copy()

        def _diverge(fun, x0, **kwargs):
            # Mimic a search that wandered off and failed: it *evaluated*
            # other thetas (mutating the kernel) but reports non-finite.
            fun(np.asarray(x0, dtype=float) + 1.0)
            return optimize.OptimizeResult(
                x=np.asarray(x0, dtype=float) + 1.0, fun=float("nan"), success=False
            )

        monkeypatch.setattr("repro.ml.gp.optimize.minimize", _diverge)
        gp.fit(X, y)
        np.testing.assert_array_equal(gp.kernel.theta, incumbent)

    def test_derived_lml_matches_direct_evaluation(self):
        X, y = _data(n=14)
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5), noise=1e-4, n_restarts=0, seed=1
        )
        gp.fit(X, y)
        yn = (gp._y_raw - gp._y_mean) / gp._y_std
        # The stored value comes from the final factorization (which may
        # carry ladder jitter); it must agree with a fresh evaluation at
        # the fitted theta to numerical precision.
        direct = gp._lml(gp._X, yn)
        np.testing.assert_allclose(gp.log_marginal_likelihood_, direct, rtol=1e-9, atol=1e-9)


class TestSamplePosteriorSinglePoint:
    def _fitted(self, seed=21):
        X, y = _data(seed=seed, n=18, d=3)
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5), noise=1e-4, n_restarts=0, seed=seed
        )
        return gp.fit(X, y)

    def test_shape_and_determinism(self):
        gp = self._fitted()
        x = np.full((1, 3), 0.3)
        draws = gp.sample_posterior(x, n_samples=6)
        assert draws.shape == (6, 1)
        np.testing.assert_array_equal(draws, gp.sample_posterior(x, n_samples=6))

    def test_consistent_with_posterior_moments(self):
        gp = self._fitted()
        x = np.full((1, 3), 0.6)
        rng = np.random.default_rng(77)
        draws = gp.sample_posterior(x, n_samples=4000, rng=rng).ravel()
        mean, std = gp.predict(x, return_std=True)
        assert abs(draws.mean() - mean[0]) < 5.0 * std[0] / np.sqrt(4000) + 1e-6
        assert draws.std() < 3.0 * std[0] + 1e-6

    def test_multi_point_path_unchanged(self):
        gp = self._fitted()
        X_test = np.linspace(0.1, 0.9, 12).reshape(4, 3)
        draws = gp.sample_posterior(X_test, n_samples=3)
        assert draws.shape == (3, 4)
        assert np.all(np.isfinite(draws))


class TestHammingCache:
    def test_hamming_kernel_accepts_cache(self):
        rng = np.random.default_rng(13)
        A = rng.integers(0, 3, (10, 4)).astype(float)
        cache = KernelCache()
        kernel = HammingKernel()
        first = kernel(A, A, cache)
        second = kernel(A, A, cache)
        np.testing.assert_array_equal(first, second)
        assert cache.hits >= 1
        np.testing.assert_array_equal(first, kernel(A, A))
