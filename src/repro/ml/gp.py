"""Gaussian-process regression (Rasmussen & Williams, 2006, ch. 2).

Exact GP inference with Cholesky factorization, target standardization, and
marginal-likelihood hyperparameter fitting by multi-restart L-BFGS-B over
the kernel's log-parameters.  This is the surrogate behind vanilla BO,
mixed-kernel BO, TuRBO's local models, and RGPE's base models.

The O(n^3) Cholesky cost per (re)fit is intentional and *measured* by the
algorithm-overhead experiment (paper Figure 9).  What is **not** intentional
is implementation overhead on top of it, so ``fit`` threads a per-fit
:class:`~repro.perf.cache.KernelCache` through every kernel evaluation
(the pairwise distances are theta-independent and identical across the
~120 likelihood evaluations of one hyperparameter search) and derives the
final ``log_marginal_likelihood_`` from the factorization it already has
instead of running a third Cholesky.  Both are bit-identical to kernel
calls without a cache and to a directly evaluated likelihood
(``tests/ml/test_gp_cache.py``).  Every ``fit`` is a from-scratch fit:
a hyperparameter search and a fresh factorization of the full history.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, optimize, stats

from repro.ml.kernels import Kernel, RBFKernel
from repro.perf.cache import KernelCache


class GaussianProcessRegressor:
    """Exact GP regression with a pluggable kernel.

    Parameters
    ----------
    kernel:
        Covariance function (default: isotropic RBF).
    noise:
        Observation-noise variance added to the diagonal (jitter floor of
        ``1e-8`` is always applied for numerical stability).
    normalize_y:
        Standardize targets before fitting; predictions are de-standardized.
    optimize_hyperparams:
        Maximize the log marginal likelihood over the kernel's ``theta``.
    n_restarts:
        Number of random restarts for the hyperparameter search.
    seed:
        RNG seed for restart sampling.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise: float = 1e-6,
        normalize_y: bool = True,
        optimize_hyperparams: bool = True,
        n_restarts: int = 2,
        seed: int | None = None,
    ) -> None:
        if noise < 0:
            raise ValueError("noise must be >= 0")
        self.kernel = kernel if kernel is not None else RBFKernel()
        self.noise = noise
        self.normalize_y = normalize_y
        self.optimize_hyperparams = optimize_hyperparams
        self.n_restarts = n_restarts
        self.seed = seed

        self._X: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._y_mean: float = 0.0
        self._y_std: float = 1.0
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self.log_marginal_likelihood_: float = float("-inf")

    # ------------------------------------------------------------------
    def _lml(self, X: np.ndarray, y: np.ndarray, cache: KernelCache | None = None) -> float:
        """Log marginal likelihood at the kernel's current theta."""
        n = len(X)
        K = self.kernel(X, X, cache) + (self.noise + 1e-8) * np.eye(n)
        try:
            L = linalg.cholesky(K, lower=True)
        except linalg.LinAlgError:
            return float("-inf")
        alpha = linalg.cho_solve((L, True), y)
        return float(
            -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi)
        )

    def _fit_hyperparams(
        self, X: np.ndarray, y: np.ndarray, cache: KernelCache | None = None
    ) -> None:
        bounds = self.kernel.bounds
        if not bounds:
            return
        rng = np.random.default_rng(self.seed)

        best_theta = self.kernel.theta.copy()
        # The incumbent value is computed once and memoized: L-BFGS-B
        # re-evaluates its start point, which used to cost a duplicate
        # O(n^3) likelihood evaluation per fit.
        memo: dict[bytes, float] = {}

        def negative_lml(theta: np.ndarray) -> float:
            key = np.asarray(theta, dtype=float).tobytes()
            hit = memo.get(key)
            if hit is not None:
                return hit
            self.kernel.theta = theta
            return -self._lml(X, y, cache)

        best_val = negative_lml(best_theta)
        memo[best_theta.tobytes()] = best_val
        starts = [best_theta]
        for _ in range(self.n_restarts):
            starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))
        for start in starts:
            result = optimize.minimize(
                negative_lml,
                start,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 30, "eps": 1e-3},
            )
            if np.isfinite(result.fun) and result.fun < best_val:
                best_val = float(result.fun)
                best_theta = result.x.copy()
        # Always restore the best theta: `negative_lml` mutates the kernel
        # as a side effect, so without this the kernel would be left at the
        # optimizer's *last evaluated* point — including when every
        # `minimize` call came back non-finite, where the incumbent must win.
        self.kernel.theta = best_theta

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        if self.normalize_y:
            self._y_mean = float(y.mean())
            std = float(y.std())
            self._y_std = std if std > 0 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        yn = (y - self._y_mean) / self._y_std

        cache = KernelCache()
        if self.optimize_hyperparams:
            self._fit_hyperparams(X, yn, cache)

        n = len(X)
        K = self.kernel(X, X, cache) + (self.noise + 1e-8) * np.eye(n)
        jitter = 1e-8
        while True:
            try:
                self._chol = linalg.cholesky(K + jitter * np.eye(n), lower=True)
                break
            except linalg.LinAlgError:
                jitter *= 10.0
                if jitter > 1e-2:
                    raise
        self._alpha = linalg.cho_solve((self._chol, True), yn)
        self._X = X
        self._y_raw = y.copy()
        # Derived from the factorization above — the third Cholesky the
        # seed implementation ran here was redundant.
        self.log_marginal_likelihood_ = float(
            -0.5 * yn @ self._alpha
            - np.sum(np.log(np.diag(self._chol)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        return self

    # ------------------------------------------------------------------
    def predict(
        self, X: np.ndarray, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optional standard deviation) at test points."""
        if self._X is None or self._chol is None or self._alpha is None:
            raise RuntimeError("GP is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K_star = self.kernel(X, self._X)
        mean = K_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = linalg.solve_triangular(self._chol, K_star.T, lower=True)
        var = self.kernel.diag(X) - np.sum(v**2, axis=0)
        std = np.sqrt(np.maximum(var, 1e-12)) * self._y_std
        return mean, std

    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Alias matching the forest surrogate interface."""
        mean, std = self.predict(X, return_std=True)
        return mean, std

    def sample_posterior(
        self, X: np.ndarray, n_samples: int = 1, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw joint posterior samples at test points, shape ``(s, n)``.

        Without an explicit ``rng`` the draw is deterministic in
        ``self.seed``: two calls on the same fitted GP return identical
        samples.  Callers that want fresh draws per call must thread their
        own generator.

        A single test point short-circuits to a univariate draw: the full
        ``kernel(X, X)`` test covariance degenerates to the kernel
        diagonal there, so no test-test covariance matrix is built.
        """
        if self._X is None or self._chol is None or self._alpha is None:
            raise RuntimeError("GP is not fitted")
        rng = np.random.default_rng(self.seed) if rng is None else rng
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cache = KernelCache()
        K_star = self.kernel(X, self._X, cache)
        mean = K_star @ self._alpha
        v = linalg.solve_triangular(self._chol, K_star.T, lower=True)
        if len(X) == 1:
            var = float(self.kernel.diag(X)[0]) - float(np.sum(v**2)) + 1e-8
            draws = mean[0] + math.sqrt(max(var, 0.0)) * rng.standard_normal(n_samples)
            draws = draws[:, None]
        else:
            cov = self.kernel(X, X, cache) - v.T @ v
            cov += 1e-8 * np.eye(len(X))
            draws = stats.multivariate_normal.rvs(
                mean=mean, cov=cov, size=n_samples, random_state=rng
            )
            draws = np.atleast_2d(draws)
        return draws * self._y_std + self._y_mean
