"""Regression and set-similarity metrics.

The paper reports R² and RMSE for surrogate quality (Table 9, Figure 4) and
the intersection over union of top-k knob sets (Figure 4).
"""

from __future__ import annotations

import numpy as np


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("empty input")
    return y_true, y_pred


def mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def root_mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root mean squared error (Table 9's RMSE column)."""
    return float(np.sqrt(mean_squared_error(y_true, y_pred)))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination R² (Gunst, 1999).

    Returns 0.0 when the target is constant and predictions are exact,
    and can be negative for models worse than the mean predictor.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0 if ss_res > 0 else 1.0
    return 1.0 - ss_res / ss_tot


def intersection_over_union(a: set, b: set) -> float:
    """Jaccard similarity of two sets (Figure 4's similarity score)."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)
