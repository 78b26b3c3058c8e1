"""Random forest regression (Breiman, 2001).

The forest is the workhorse of the paper: SMAC's surrogate, the ablation
and SHAP surrogates, the fANOVA base model, and the winning surrogate of
the tuning benchmark (Table 9) are all random forests.  Besides the mean
prediction it exposes the across-tree variance that SMAC's Gaussian
assumption ``N(y | mu, sigma^2)`` requires.

The expensive per-feature float sorts happen once per *dataset*
(:func:`repro.perf.treefast.feature_sort_ranks`) and every bootstrap
resample re-sorts via an integer radix sort of the dense rank keys.
Prediction packs all trees into one flat node array, so a single
vectorized descent covers every (tree, sample) pair, and
``predict``/``predict_with_std`` share that one descent.  Trees and
predictions are byte-identical to per-tree
:meth:`~repro.ml.tree.DecisionTreeRegressor._fit_scalar` fits and
:meth:`~repro.ml.tree.DecisionTreeRegressor.predict` calls
(``tests/ml/test_tree_bit_identity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor
from repro.perf.treefast import PackedTrees, feature_sort_ranks, subset_sort_orders


class RandomForestRegressor:
    """Bagged CART ensemble with per-tree feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = 0.8,
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees_: list[DecisionTreeRegressor] = []
        self.n_features_: int = 0
        self._packed: PackedTrees | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        n = len(X)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.seed)
        ranks = feature_sort_ranks(X)
        self.trees_ = []
        for _ in range(self.n_estimators):
            # Per tree, the seed is drawn before the bootstrap rows.
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            rows = rng.integers(0, n, size=n)
            tree.fit(X[rows], y[rows], sort_order=subset_sort_orders(ranks, rows))
            self.trees_.append(tree)
        self._packed = None
        return self

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("forest is not fitted")

    def tree_predictions(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_estimators, n_samples)``.

        One batched descent over the packed node arrays covers all
        (tree, sample) pairs.
        """
        self._check_fitted()
        if self._packed is None:
            self._packed = PackedTrees(self.trees_)
        return self._packed.values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction across trees (one ensemble descent)."""
        return self.tree_predictions(X).mean(axis=0)

    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and across-tree standard deviation (SMAC's mu, sigma).

        One descent yields the per-tree values; mean and deviation are
        reduced from the same pass, so SMAC's acquisition never walks the
        ensemble twice.  A small floor keeps sigma positive so
        acquisition functions stay well-defined even where all trees
        agree.
        """
        preds = self.tree_predictions(X)
        mean = preds.mean(axis=0)
        std = preds.std(axis=0)
        return mean, np.maximum(std, 1e-9)

    def split_counts(self) -> np.ndarray:
        """Total split counts per feature across trees (Gini score basis)."""
        self._check_fitted()
        counts = np.zeros(self.n_features_)
        for tree in self.trees_:
            counts += tree.split_counts()
        return counts
