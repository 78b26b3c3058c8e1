"""Kernel support-vector regression (Table 9 surrogate candidates).

We solve the bias-free epsilon-SVR dual by cyclic coordinate descent with
soft-thresholding: with RBF kernel matrix ``K`` and dual coefficients
``beta_i = alpha_i - alpha_i*`` in ``[-C, C]``, the objective

    D(beta) = 1/2 beta' K beta - y' beta + eps * ||beta||_1

has a closed-form coordinate update.  The bias is handled by centering the
targets (standard for universal kernels).  NuSVR re-derives ``eps`` from the
``nu`` fraction of the target's spread, matching libsvm's tube-width
semantics approximately.
"""

from __future__ import annotations

import numpy as np


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    d2 = (
        np.sum(A**2, axis=1)[:, None]
        - 2.0 * A @ B.T
        + np.sum(B**2, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


class EpsilonSVR:
    """Epsilon-insensitive kernel SVR trained by dual coordinate descent."""

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        gamma: float | str = "scale",
        max_iter: int = 200,
        tol: float = 1e-4,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be > 0")
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        self.C = C
        self.epsilon = epsilon
        self.gamma = gamma
        self.max_iter = max_iter
        self.tol = tol
        self._X: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._gamma_value: float = 1.0

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0 / X.shape[1]
        if isinstance(self.gamma, (int, float)):
            if self.gamma <= 0:
                raise ValueError("gamma must be > 0")
            return float(self.gamma)
        raise ValueError(f"invalid gamma: {self.gamma!r}")

    def _solve(self, K: np.ndarray, y: np.ndarray, epsilon: float) -> np.ndarray:
        n = len(y)
        beta = np.zeros(n)
        # residual_i = y_i - (K beta)_i, kept incrementally.
        residual = y.copy()
        diag = np.maximum(np.diag(K), 1e-12)
        for _ in range(self.max_iter):
            max_delta = 0.0
            for i in range(n):
                old = beta[i]
                rho = residual[i] + diag[i] * old
                if rho > epsilon:
                    new = (rho - epsilon) / diag[i]
                elif rho < -epsilon:
                    new = (rho + epsilon) / diag[i]
                else:
                    new = 0.0
                new = float(np.clip(new, -self.C, self.C))
                if new != old:
                    residual -= K[:, i] * (new - old)
                    beta[i] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < self.tol:
                break
        return beta

    def fit(self, X: np.ndarray, y: np.ndarray) -> "EpsilonSVR":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self._gamma_value = self._resolve_gamma(X)
        self._X = X
        self.intercept_ = float(y.mean())
        K = _rbf_kernel(X, X, self._gamma_value)
        self.dual_coef_ = self._solve(K, y - self.intercept_, self.epsilon)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None or self.dual_coef_ is None:
            raise RuntimeError("model is not fitted")
        K = _rbf_kernel(np.asarray(X, dtype=float), self._X, self._gamma_value)
        return K @ self.dual_coef_ + self.intercept_


class NuSVR(EpsilonSVR):
    """Nu-parameterized SVR: the tube width adapts to the data.

    ``nu`` upper-bounds the fraction of training points outside the tube;
    we set ``epsilon`` to the ``(1 - nu)`` quantile of the centered target's
    absolute deviation and refine it once from residuals.
    """

    def __init__(
        self,
        C: float = 1.0,
        nu: float = 0.5,
        gamma: float | str = "scale",
        max_iter: int = 200,
        tol: float = 1e-4,
    ) -> None:
        if not 0.0 < nu <= 1.0:
            raise ValueError("nu must be in (0, 1]")
        super().__init__(C=C, epsilon=0.0, gamma=gamma, max_iter=max_iter, tol=tol)
        self.nu = nu

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NuSVR":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self._gamma_value = self._resolve_gamma(X)
        self._X = X
        self.intercept_ = float(y.mean())
        yc = y - self.intercept_
        K = _rbf_kernel(X, X, self._gamma_value)
        # Initial tube from the target spread, then one refinement from the
        # fitted residual distribution.
        eps = float(np.quantile(np.abs(yc), 1.0 - self.nu)) if len(yc) > 1 else 0.0
        beta = self._solve(K, yc, eps)
        residual = np.abs(yc - K @ beta)
        eps = float(np.quantile(residual, 1.0 - self.nu)) if len(residual) > 1 else 0.0
        self.epsilon = eps
        self.dual_coef_ = self._solve(K, yc, eps)
        return self
