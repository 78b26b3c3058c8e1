"""Linear regression models: Ridge and coordinate-descent Lasso.

Lasso (Tibshirani, 1996) is the importance measurement used by OtterTune:
the L1 penalty drives coefficients of irrelevant knobs to exactly zero.
The solver is cyclic coordinate descent with soft-thresholding, the same
algorithm scikit-learn uses.
"""

from __future__ import annotations

import numpy as np


class RidgeRegression:
    """L2-regularized linear regression (closed form)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True) -> None:
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if self.fit_intercept:
            x_mean, y_mean = X.mean(axis=0), y.mean()
            Xc, yc = X - x_mean, y - y_mean
        else:
            x_mean, y_mean = np.zeros(X.shape[1]), 0.0
            Xc, yc = X, y
        d = Xc.shape[1]
        gram = Xc.T @ Xc + self.alpha * np.eye(d)
        self.coef_ = np.linalg.solve(gram, Xc.T @ yc)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(X, dtype=float) @ self.coef_ + self.intercept_


class LassoRegression:
    """L1-regularized linear regression via cyclic coordinate descent.

    Minimizes ``(1 / 2n) * ||y - Xw||^2 + alpha * ||w||_1``.  Inputs are
    internally standardized so the penalty treats all features equally;
    coefficients are reported on the standardized scale (what matters for
    importance ranking).
    """

    def __init__(
        self,
        alpha: float = 0.01,
        max_iter: int = 1000,
        tol: float = 1e-6,
        standardize: bool = True,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.standardize = standardize
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self._x_mean: np.ndarray | None = None
        self._x_scale: np.ndarray | None = None

    @staticmethod
    def _soft_threshold(value: float, threshold: float) -> float:
        if value > threshold:
            return value - threshold
        if value < -threshold:
            return value + threshold
        return 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LassoRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        n, d = X.shape
        self._x_mean = X.mean(axis=0)
        if self.standardize:
            scale = X.std(axis=0)
            scale[scale == 0.0] = 1.0
        else:
            scale = np.ones(d)
        self._x_scale = scale
        Xs = (X - self._x_mean) / scale
        y_mean = y.mean()
        yc = y - y_mean

        w = np.zeros(d)
        residual = yc.copy()
        col_sq = (Xs**2).sum(axis=0)
        threshold = self.alpha * n
        for iteration in range(self.max_iter):
            max_delta = 0.0
            for j in range(d):
                if col_sq[j] == 0.0:
                    continue
                w_old = w[j]
                # rho: correlation of feature j with residual excluding j.
                rho = Xs[:, j] @ residual + col_sq[j] * w_old
                w_new = self._soft_threshold(rho, threshold) / col_sq[j]
                if w_new != w_old:
                    residual += Xs[:, j] * (w_old - w_new)
                    w[j] = w_new
                    max_delta = max(max_delta, abs(w_new - w_old))
            if max_delta < self.tol:
                break
        self.n_iter_ = iteration + 1
        self.coef_ = w
        self.intercept_ = float(y_mean)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self._x_mean is None or self._x_scale is None:
            raise RuntimeError("model is not fitted")
        Xs = (np.asarray(X, dtype=float) - self._x_mean) / self._x_scale
        return Xs @ self.coef_ + self.intercept_
