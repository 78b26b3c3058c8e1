"""Tests for the standard scaler and polynomial features."""

import numpy as np
import pytest

from repro.ml.preprocessing import PolynomialFeatures, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(200, 3))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_is_safe(self):
        X = np.ones((10, 2))
        Z = StandardScaler().fit_transform(X)
        assert np.isfinite(Z).all()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))


class TestPolynomialFeatures:
    def test_degree2_expansion(self):
        X = np.array([[2.0, 3.0]])
        out = PolynomialFeatures(degree=2).fit_transform(X)
        # a, b, a^2, ab, b^2
        np.testing.assert_allclose(out, [[2, 3, 4, 6, 9]])

    def test_interaction_only(self):
        X = np.array([[2.0, 3.0]])
        out = PolynomialFeatures(degree=2, interaction_only=True).fit_transform(X)
        np.testing.assert_allclose(out, [[2, 3, 6]])

    def test_bias_column(self):
        X = np.array([[5.0]])
        out = PolynomialFeatures(degree=1, include_bias=True).fit_transform(X)
        np.testing.assert_allclose(out, [[1, 5]])

    def test_feature_groups_map_to_inputs(self):
        poly = PolynomialFeatures(degree=2)
        poly.fit(np.zeros((1, 3)))
        groups = poly.feature_groups(3)
        assert (0,) in groups and (0, 1) in groups and (2,) in groups

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            PolynomialFeatures(degree=0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PolynomialFeatures().transform(np.ones((1, 2)))
