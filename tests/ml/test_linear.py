"""Tests for Ridge / Lasso."""

import numpy as np
import pytest

from repro.ml.linear import LassoRegression, RidgeRegression
from repro.ml.metrics import r2_score


@pytest.fixture
def linear_data():
    rng = np.random.default_rng(0)
    X = rng.random((300, 5))
    w = np.array([3.0, -2.0, 0.0, 0.0, 1.0])
    y = X @ w + 0.7 + rng.normal(0, 0.01, 300)
    return X, y, w


class TestRidge:
    def test_shrinks_toward_zero(self, linear_data):
        X, y, __ = linear_data
        small = RidgeRegression(alpha=0.001).fit(X, y)
        big = RidgeRegression(alpha=1e5).fit(X, y)
        assert np.linalg.norm(big.coef_) < np.linalg.norm(small.coef_)

    def test_alpha_zero_matches_ols(self, linear_data):
        X, y, __ = linear_data
        ridge = RidgeRegression(alpha=0.0).fit(X, y)
        ols, *__ = np.linalg.lstsq(X - X.mean(axis=0), y - y.mean(), rcond=None)
        np.testing.assert_allclose(ridge.coef_, ols, atol=1e-6)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1.0)


class TestLasso:
    def test_sparsity_on_irrelevant_features(self, linear_data):
        X, y, w = linear_data
        model = LassoRegression(alpha=0.05).fit(X, y)
        zero_idx = np.nonzero(w == 0)[0]
        assert np.all(np.abs(model.coef_[zero_idx]) < 1e-6)
        nonzero_idx = np.nonzero(w != 0)[0]
        assert np.all(np.abs(model.coef_[nonzero_idx]) > 0.1)

    def test_alpha_zero_fits_well(self, linear_data):
        X, y, __ = linear_data
        model = LassoRegression(alpha=0.0, max_iter=2000).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99

    def test_huge_alpha_kills_all_coefficients(self, linear_data):
        X, y, __ = linear_data
        model = LassoRegression(alpha=1e6).fit(X, y)
        np.testing.assert_allclose(model.coef_, 0.0)
        # prediction degenerates to the target mean
        np.testing.assert_allclose(model.predict(X), y.mean(), atol=1e-9)

    def test_convergence_counter(self, linear_data):
        X, y, __ = linear_data
        model = LassoRegression(alpha=0.01, max_iter=500).fit(X, y)
        assert 1 <= model.n_iter_ <= 500

    def test_constant_feature_is_safe(self):
        X = np.hstack([np.ones((50, 1)), np.random.default_rng(0).random((50, 1))])
        y = X[:, 1] * 2.0
        model = LassoRegression(alpha=0.001).fit(X, y)
        assert np.isfinite(model.coef_).all()
