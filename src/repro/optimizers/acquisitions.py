"""Acquisition functions for model-based optimizers (maximization form)."""

from __future__ import annotations

import numpy as np
from scipy import stats


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """EI over the incumbent ``best`` for a maximization problem.

    ``EI(x) = (mu - best - xi) * Phi(z) + sigma * phi(z)`` with
    ``z = (mu - best - xi) / sigma``; zero where sigma vanishes.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    improvement = mean - best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)
    return np.where(std > 0, np.maximum(ei, 0.0), np.maximum(improvement, 0.0))
