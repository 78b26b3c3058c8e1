"""Tests for CART trees, random forests, and gradient boosting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


@pytest.fixture
def step_data():
    """Piecewise-constant target: trees should fit it exactly."""
    rng = np.random.default_rng(0)
    X = rng.random((200, 2))
    y = np.where(X[:, 0] > 0.5, 10.0, -10.0) + np.where(X[:, 1] > 0.25, 1.0, 0.0)
    return X, y


class TestDecisionTree:
    def test_fits_step_function_exactly(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y)

    def test_max_depth_limits_nodes(self, step_data):
        X, y = step_data
        stump = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert stump.n_nodes == 3  # root + two leaves
        # stump predicts two distinct values
        assert len(np.unique(stump.predict(X))) == 2

    def test_min_samples_leaf_respected(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor(min_samples_leaf=30).fit(X, y)
        assert tree.n_node_samples[tree.feature == -1].min() >= 30

    def test_split_counts_identify_dominant_feature(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        counts = tree.split_counts()
        assert counts[0] >= 1  # the step feature is used

    def test_constant_target_yields_single_leaf(self):
        X = np.random.default_rng(0).random((20, 3))
        tree = DecisionTreeRegressor().fit(X, np.ones(20))
        assert tree.n_nodes == 1
        np.testing.assert_allclose(tree.predict(X), 1.0)

    def test_leaf_partition_covers_unit_cube(self, step_data):
        X, y = step_data
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        bounds = np.tile([0.0, 1.0], (2, 1))
        leaves = tree.leaf_partition(bounds)
        total_volume = sum(np.prod(box[:, 1] - box[:, 0]) for box, __ in leaves)
        assert total_volume == pytest.approx(1.0)

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones((3, 2)), np.ones(4))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_predictions_within_target_range(self, n):
        rng = np.random.default_rng(n)
        X = rng.random((n, 3))
        y = rng.normal(size=n)
        tree = DecisionTreeRegressor().fit(X, y)
        preds = tree.predict(rng.random((10, 3)))
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12


class TestRandomForest:
    def test_regression_quality(self, small_regression_data):
        X, y = small_regression_data
        forest = RandomForestRegressor(n_estimators=20, seed=0).fit(X, y)
        assert r2_score(y, forest.predict(X)) > 0.9

    def test_predict_with_std_positive(self, small_regression_data):
        X, y = small_regression_data
        forest = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        mean, std = forest.predict_with_std(X[:10])
        assert (std > 0).all()
        assert mean.shape == std.shape == (10,)

    def test_seeded_determinism(self, small_regression_data):
        X, y = small_regression_data
        a = RandomForestRegressor(n_estimators=5, seed=3).fit(X, y).predict(X[:5])
        b = RandomForestRegressor(n_estimators=5, seed=3).fit(X, y).predict(X[:5])
        np.testing.assert_array_equal(a, b)

    def test_split_counts_favor_informative_features(self, small_regression_data):
        X, y = small_regression_data
        forest = RandomForestRegressor(n_estimators=20, seed=0).fit(X, y)
        counts = forest.split_counts()
        assert counts[0] > counts[5]  # feature 0 is strong, 5 is noise

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 3)))

    def test_invalid_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)


class TestGradientBoosting:
    def test_improves_with_stages(self, small_regression_data):
        X, y = small_regression_data
        # With one seed, the first five of 60 stages are a 5-stage model.
        five = GradientBoostingRegressor(n_estimators=5, seed=0).fit(X, y)
        sixty = GradientBoostingRegressor(n_estimators=60, seed=0).fit(X, y)
        early = r2_score(y, five.predict(X))
        late = r2_score(y, sixty.predict(X))
        assert late > early

    def test_quality(self, small_regression_data):
        X, y = small_regression_data
        gb = GradientBoostingRegressor(n_estimators=120, seed=0).fit(X, y)
        assert r2_score(y, gb.predict(X)) > 0.95

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
