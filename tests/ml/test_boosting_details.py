"""Additional gradient-boosting and tree-interaction tests."""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


class TestBoostingVsForest:
    def test_boosting_beats_single_tree_on_smooth_target(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 2))
        y = np.sin(6 * X[:, 0]) + np.cos(4 * X[:, 1])
        Xq = rng.random((200, 2))
        yq = np.sin(6 * Xq[:, 0]) + np.cos(4 * Xq[:, 1])
        stump_forest = DecisionTreeRegressor(max_depth=3).fit(X, y)
        gb = GradientBoostingRegressor(n_estimators=150, max_depth=3, seed=0).fit(X, y)
        assert r2_score(yq, gb.predict(Xq)) > r2_score(yq, stump_forest.predict(Xq))

    def test_learning_rate_shrinkage_tradeoff(self):
        rng = np.random.default_rng(1)
        X = rng.random((200, 2))
        y = X[:, 0] ** 2
        fast = GradientBoostingRegressor(n_estimators=5, learning_rate=0.9, seed=0).fit(X, y)
        slow = GradientBoostingRegressor(n_estimators=5, learning_rate=0.01, seed=0).fit(X, y)
        # with only 5 stages the large learning rate fits far more
        assert r2_score(y, fast.predict(X)) > r2_score(y, slow.predict(X))

    def test_forest_interaction_capture(self):
        """XOR-style interaction: forests learn it, linear models cannot."""
        rng = np.random.default_rng(2)
        X = rng.random((500, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        forest = RandomForestRegressor(n_estimators=30, seed=0).fit(X, y)
        pred = forest.predict(X)
        assert np.mean((pred > 0.5) == (y > 0.5)) > 0.95

    def test_unfitted_raises(self):
        gb = GradientBoostingRegressor()
        with pytest.raises(RuntimeError):
            gb.predict(np.ones((1, 2)))


class TestTreeStructureInvariants:
    def test_children_partition_parent_samples(self):
        rng = np.random.default_rng(4)
        X = rng.random((150, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 150)
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        assert tree.feature is not None
        for node in range(tree.n_nodes):
            if tree.feature[node] >= 0:
                left, right = tree.left[node], tree.right[node]
                assert (
                    tree.n_node_samples[node]
                    == tree.n_node_samples[left] + tree.n_node_samples[right]
                )

    def test_impurity_decrease_nonnegative(self):
        rng = np.random.default_rng(5)
        X = rng.random((150, 3))
        y = rng.normal(size=150)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert (tree.impurity_decrease >= 0).all()

    def test_apply_maps_to_leaves(self):
        rng = np.random.default_rng(6)
        X = rng.random((80, 2))
        tree = DecisionTreeRegressor(max_depth=4).fit(X, X[:, 0])
        leaves = tree.apply(X)
        assert (tree.feature[leaves] == -1).all()
