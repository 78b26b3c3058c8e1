"""Feature preprocessing: standardization and polynomial expansion.

OtterTune's Lasso-based knob ranking augments inputs with second-degree
polynomial features (paper §4.2); :class:`PolynomialFeatures` reproduces
that expansion with interaction terms.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np


def _as_2d(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"expected 2-D input, got shape {X.shape}")
    return X


class StandardScaler:
    """Standardize features to zero mean and unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = _as_2d(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        return (_as_2d(X) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class PolynomialFeatures:
    """Second-or-higher degree polynomial/interaction feature expansion.

    With ``degree=2`` and ``interaction_only=False`` (the OtterTune setting),
    input features ``(a, b)`` expand to ``(a, b, a^2, a*b, b^2)`` plus an
    optional bias column.
    """

    def __init__(
        self,
        degree: int = 2,
        interaction_only: bool = False,
        include_bias: bool = False,
    ) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.interaction_only = interaction_only
        self.include_bias = include_bias
        self._combos: list[tuple[int, ...]] | None = None

    def fit(self, X: np.ndarray) -> "PolynomialFeatures":
        X = _as_2d(X)
        d = X.shape[1]
        combos: list[tuple[int, ...]] = []
        if self.include_bias:
            combos.append(())
        comb = combinations if self.interaction_only else combinations_with_replacement
        for deg in range(1, self.degree + 1):
            combos.extend(comb(range(d), deg))
        self._combos = combos
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self._combos is None:
            raise RuntimeError("PolynomialFeatures is not fitted")
        X = _as_2d(X)
        n = X.shape[0]
        out = np.empty((n, len(self._combos)))
        for j, combo in enumerate(self._combos):
            if not combo:
                out[:, j] = 1.0
            else:
                col = X[:, combo[0]].copy()
                for idx in combo[1:]:
                    col *= X[:, idx]
                out[:, j] = col
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def feature_groups(self, n_features: int) -> list[tuple[int, ...]]:
        """Map each output column to the input feature indices it involves.

        Used to aggregate polynomial-term coefficients back onto the
        original knobs when ranking importances.
        """
        if self._combos is None:
            self.fit(np.zeros((1, n_features)))
        assert self._combos is not None
        return [tuple(sorted(set(c))) for c in self._combos]
