"""Cross-cutting robustness tests for the ML substrate.

Every regressor must handle the awkward inputs that real tuning pools
produce: constant targets (all evaluations clamped to the same worst
score), duplicate rows (re-evaluated configurations), single features,
and extreme target scales.
"""

import numpy as np
import pytest

from repro.ml import (
    EpsilonSVR,
    GaussianProcessRegressor,
    GradientBoostingRegressor,
    KNNRegressor,
    LassoRegression,
    RandomForestRegressor,
    RidgeRegression,
)

MODELS = {
    "ridge": lambda: RidgeRegression(alpha=1.0),
    "lasso": lambda: LassoRegression(alpha=0.01),
    "rf": lambda: RandomForestRegressor(n_estimators=5, seed=0),
    "gb": lambda: GradientBoostingRegressor(n_estimators=10, seed=0),
    "knn": lambda: KNNRegressor(3),
    "svr": lambda: EpsilonSVR(C=1.0, epsilon=0.05, max_iter=30),
    "gp": lambda: GaussianProcessRegressor(optimize_hyperparams=False),
}


@pytest.mark.parametrize("name", sorted(MODELS))
class TestRobustness:
    def test_constant_target(self, name):
        rng = np.random.default_rng(0)
        X = rng.random((30, 4))
        y = np.full(30, 7.0)
        model = MODELS[name]()
        model.fit(X, y)
        pred = np.asarray(model.predict(X))
        np.testing.assert_allclose(pred, 7.0, atol=0.6)

    def test_duplicate_rows(self, name):
        rng = np.random.default_rng(1)
        base = rng.random((10, 3))
        X = np.vstack([base, base, base])
        y = np.concatenate([base[:, 0]] * 3)
        model = MODELS[name]()
        model.fit(X, y)
        assert np.isfinite(np.asarray(model.predict(X))).all()

    def test_single_feature(self, name):
        rng = np.random.default_rng(2)
        X = rng.random((40, 1))
        y = 2.0 * X.ravel() + 1.0
        model = MODELS[name]()
        model.fit(X, y)
        pred = np.asarray(model.predict(X))
        assert np.corrcoef(pred, y)[0, 1] > 0.8

    def test_huge_target_scale(self, name):
        rng = np.random.default_rng(3)
        X = rng.random((40, 3))
        y = 1e7 * X[:, 0] + 1e6
        model = MODELS[name]()
        model.fit(X, y)
        pred = np.asarray(model.predict(X))
        assert np.isfinite(pred).all()

    def test_two_samples(self, name):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0])
        model = MODELS[name]()
        model.fit(X, y)
        assert np.isfinite(np.asarray(model.predict(X))).all()
