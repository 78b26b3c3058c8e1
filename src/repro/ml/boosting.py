"""Gradient-boosted regression trees (least-squares boosting).

GB is one of the candidate surrogate regressors in the tuning benchmark
(Table 9) where, together with random forests, it is the best performer.

Every boosting round fits a tree on the *same* feature matrix, so the
per-feature sort orders are computed once and reused by all
``n_estimators`` rounds.  The in-sample predictions that update the
boosting residuals come straight from the fit-time leaf partition
(``tree.train_node_ids_``) instead of re-descending each new tree, and
``predict`` descends the whole ensemble in one packed pass.  The result
is byte-identical to a loop of
:meth:`~repro.ml.tree.DecisionTreeRegressor._fit_scalar` fits and
per-tree ``predict`` calls (``tests/ml/test_tree_bit_identity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor
from repro.perf.treefast import PackedTrees, feature_sort_ranks


class GradientBoostingRegressor:
    """Stagewise additive model of shallow trees on squared-error residuals."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        seed: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.init_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []
        self._packed: PackedTrees | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        rng = np.random.default_rng(self.seed)
        n = len(X)
        self.init_ = float(y.mean())
        current = np.full(n, self.init_)
        self.trees_ = []
        # Sort the feature columns once; every boosting round reuses the orders.
        shared_order = np.argsort(feature_sort_ranks(X), axis=1, kind="stable")
        for _ in range(self.n_estimators):
            residual = y - current
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X, residual, sort_order=shared_order)
            # In-sample prediction == the fit-time leaf partition; same
            # leaf, same value, no re-descent.
            assert tree.value is not None and tree.train_node_ids_ is not None
            current += self.learning_rate * tree.value[tree.train_node_ids_]
            self.trees_.append(tree)
        self._packed = None
        return self

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("model is not fitted")

    def _tree_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values, shape ``(n_estimators, n)``."""
        if self._packed is None:
            self._packed = PackedTrees(self.trees_)
        return self._packed.values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        out = np.full(len(X), self.init_)
        # Stagewise accumulation in boosting order keeps the float
        # rounding sequence of a per-tree loop; the values come from
        # one packed descent instead of n_estimators tree walks.
        for row in self._tree_values(X):
            out += self.learning_rate * row
        return out
