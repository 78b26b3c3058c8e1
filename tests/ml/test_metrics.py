"""Tests for regression and set-similarity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import (
    intersection_over_union,
    mean_squared_error,
    r2_score,
    root_mean_squared_error,
)


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mean_squared_error(y, y) == 0.0
        assert r2_score(y, y) == 1.0

    def test_r2_of_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, y.mean())
        assert r2_score(y, pred) == pytest.approx(0.0)

    def test_r2_can_be_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, -y) < 0

    def test_rmse_is_sqrt_mse(self):
        y = np.array([0.0, 0.0])
        p = np.array([3.0, 4.0])
        assert root_mean_squared_error(y, p) == pytest.approx(np.sqrt(12.5))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_squared_error([1, 2], [1, 2, 3])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            r2_score([], [])

    def test_constant_target(self):
        y = np.ones(5)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1) == 0.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_mse_nonnegative(self, values):
        y = np.array(values)
        pred = y[::-1].copy()
        assert mean_squared_error(y, pred) >= 0.0


class TestIoU:
    def test_identical(self):
        assert intersection_over_union({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert intersection_over_union({1}, {2}) == 0.0

    def test_partial(self):
        assert intersection_over_union({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert intersection_over_union(set(), set()) == 1.0
