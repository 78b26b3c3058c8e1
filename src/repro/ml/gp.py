"""Gaussian-process regression (Rasmussen & Williams, 2006, ch. 2).

Exact GP inference with Cholesky factorization, target standardization, and
marginal-likelihood hyperparameter fitting by multi-restart L-BFGS-B over
the kernel's log-parameters.  This is the surrogate behind vanilla BO,
mixed-kernel BO, TuRBO's local models, and RGPE's base models.

The O(n^3) Cholesky cost per (re)fit is intentional and *measured* by the
algorithm-overhead experiment (paper Figure 9).  What is **not** intentional
is implementation overhead on top of it:

* ``fit`` builds the kernel's theta-independent pairwise structure of the
  training rows once (``Kernel.pairwise``: distances, mismatch counts) and
  evaluates the covariance from it (``Kernel.from_pairwise``) at each of
  the 140-240 thetas of one hyperparameter search and for the final
  factorization; it derives the final ``log_marginal_likelihood_`` from
  that factorization instead of running a third Cholesky.
* L-BFGS-B gets the likelihood and its forward-difference gradient from one
  call per step.  The gradient is the one scipy's finite-difference code
  computes for ``eps=1e-3`` (same stencil points, same step flip at the
  upper bound, same arithmetic), so every iterate is unchanged; only
  scipy's wrapper layers leave the loop.
* The Cholesky factorization and both solves call LAPACK's ``dpotrf``,
  ``dpotrs`` and ``dtrtrs`` directly, with the routines, arguments and
  input checks that ``scipy.linalg.cholesky``, ``cho_solve`` and
  ``solve_triangular`` use, minus their per-call dispatch.

All of it is bit-identical to the scipy-wrapper path and to a fit that
rebuilds the pairwise structure at every theta
(``tests/ml/test_gp_bit_identity.py``, ``tests/ml/test_gp_cache.py``).
Every ``fit`` is a from-scratch fit: a hyperparameter search and a fresh
factorization of the full history.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy import optimize
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from repro.ml.kernels import Kernel, RBFKernel

# scipy's absolute finite-difference step for L-BFGS-B (its ``eps``).
_FD_STEP = 1e-3


def _cholesky(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor: ``scipy.linalg.cholesky(K, lower=True)``.

    The factor is Fortran-ordered, as scipy's is.
    """
    L, info = dpotrf(np.asarray_chkfinite(K), lower=1, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(
            f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".'
        )
    return L


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((L, True), b)``."""
    x, info = dpotrs(np.asarray_chkfinite(L), np.asarray_chkfinite(b), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_triangular(L, B, lower=True)`` for a factor from
    :func:`_cholesky` (Fortran-ordered, so scipy's untransposed call)."""
    x, info = dtrtrs(np.asarray_chkfinite(L), np.asarray_chkfinite(B), lower=1)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _check_step_bounds(box: np.ndarray) -> None:
    """Reject bounds under which scipy would not step by ``+-_FD_STEP``.

    scipy shrinks the step where it fits on neither side of theta, and
    falls back to a relative step where ``theta + step`` rounds back to
    theta.  Neither can happen inside bounds at least four steps wide and
    within 1e6 of zero; every kernel's log bounds are at least 6.9 wide
    and within 18.5 of zero.
    """
    if not (np.all(np.abs(box) <= 1e6) and np.all(box[:, 1] - box[:, 0] >= 4 * _FD_STEP)):
        raise ValueError(
            "hyperparameter bounds must be within 1e6 of zero and at least "
            f"{4 * _FD_STEP:g} wide"
        )


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
    def _lml(self, P: Any, y: np.ndarray) -> float:
        """Log marginal likelihood at the kernel's current theta, from the
        kernel's pairwise structure ``P`` of the training rows (``-inf``
        where the covariance is not positive definite)."""
        n = len(y)
        K = self.kernel.from_pairwise(P) + (self.noise + 1e-8) * np.eye(n)
        try:
            L = _cholesky(K)
        except LinAlgError:
            return float("-inf")
        alpha = _cho_solve(L, y)
        return float(
            -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi)
        )

    def _fit_hyperparams(self, P: Any, y: np.ndarray) -> None:
        bounds = self.kernel.bounds
        if not bounds:
            return
        box = np.array(bounds, dtype=float)
        _check_step_bounds(box)
        upper = box[:, 1]
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
            return -self._lml(P, y)

        def value_and_gradient(theta: np.ndarray) -> tuple[float, np.ndarray]:
            # scipy's 2-point rule for an absolute step: step forward, or
            # backward where the forward point would pass the upper bound,
            # one coordinate at a time, dividing by the step as rounded.
            f0 = negative_lml(theta)
            step = np.where(theta + _FD_STEP > upper, -_FD_STEP, _FD_STEP)
            f = np.empty(len(theta))
            for i in range(len(theta)):
                point = theta.copy()
                point[i] = theta[i] + step[i]
                f[i] = negative_lml(point)
            return f0, (f - f0) / ((theta + step) - theta)

        best_val = negative_lml(best_theta)
        memo[best_theta.tobytes()] = best_val
        starts = [best_theta]
        for _ in range(self.n_restarts):
            starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))
        for start in starts:
            result = optimize.minimize(
                value_and_gradient,
                start,
                method="L-BFGS-B",
                jac=True,
                bounds=bounds,
                options={"maxiter": 30},
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

        P = self.kernel.pairwise(X, X)
        if self.optimize_hyperparams:
            self._fit_hyperparams(P, yn)

        n = len(X)
        K = self.kernel.from_pairwise(P) + (self.noise + 1e-8) * np.eye(n)
        jitter = 1e-8
        while True:
            try:
                self._chol = _cholesky(K + jitter * np.eye(n))
                break
            except LinAlgError:
                jitter *= 10.0
                if jitter > 1e-2:
                    raise
        self._alpha = _cho_solve(self._chol, yn)
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
        v = _solve_lower(self._chol, K_star.T)
        var = self.kernel.diag(X) - np.sum(v**2, axis=0)
        std = np.sqrt(np.maximum(var, 1e-12)) * self._y_std
        return mean, std

    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Alias matching the forest surrogate interface."""
        mean, std = self.predict(X, return_std=True)
        return mean, std
