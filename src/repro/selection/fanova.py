"""Functional ANOVA knob ranking (Hutter et al., 2014; paper §3.1.1).

For each tree of a random-forest surrogate, the prediction function is a
piecewise-constant function over leaf boxes in the unit hypercube.  The
single-feature fANOVA importance of knob ``j`` is the fraction of the
function's total variance explained by its marginal over dimension ``j``:

- total variance: ``V = sum_l w_l * v_l^2 - (sum_l w_l * v_l)^2`` over
  leaves ``l`` with box-volume weights ``w_l``;
- the marginal ``f_j(x_j)`` is piecewise constant over the segments of
  ``[0, 1]`` induced by the tree's thresholds on dimension ``j``; its
  variance under the uniform measure is the importance numerator.

Importances are averaged over trees.  Categorical knobs participate via
their unit encoding, whose bins the tree's thresholds partition exactly.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor
from repro.selection.base import ForestMeasurement


def tree_fanova_importances(tree: DecisionTreeRegressor, n_dims: int) -> np.ndarray:
    """Per-dimension fraction of a single tree's variance (unit cube)."""
    bounds = np.tile(np.array([0.0, 1.0]), (n_dims, 1))
    leaves = tree.leaf_partition(bounds)
    boxes = np.array([b for b, __ in leaves])  # (L, d, 2)
    values = np.array([v for __, v in leaves])  # (L,)
    widths = boxes[:, :, 1] - boxes[:, :, 0]  # (L, d)
    volumes = widths.prod(axis=1)
    total = volumes.sum()
    if total <= 0:
        return np.zeros(n_dims)
    weights = volumes / total
    mean = float(weights @ values)
    total_var = float(weights @ (values - mean) ** 2)
    if total_var <= 1e-15:
        return np.zeros(n_dims)

    importances = np.zeros(n_dims)
    assert tree.feature is not None and tree.threshold is not None
    for j in range(n_dims):
        thresholds = np.unique(tree.threshold[tree.feature == j])
        if len(thresholds) == 0:
            continue
        edges = np.concatenate([[0.0], np.sort(thresholds), [1.0]])
        seg_lens = np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        # Which leaves cover each segment midpoint in dimension j.
        lo, hi = boxes[:, j, 0], boxes[:, j, 1]
        covers = (lo[:, None] <= mids[None, :]) & (mids[None, :] < hi[:, None])  # (L, s)
        # Weight of each leaf excluding dim j.
        with np.errstate(divide="ignore", invalid="ignore"):
            w_excl = np.where(widths[:, j] > 0, volumes / widths[:, j], 0.0)
        denom = covers.T @ w_excl  # (s,) total marginal mass per segment
        numer = covers.T @ (w_excl * values)
        marginal = np.where(denom > 0, numer / np.maximum(denom, 1e-300), mean)
        m_mean = float(seg_lens @ marginal)
        m_var = float(seg_lens @ (marginal - m_mean) ** 2)
        importances[j] = m_var / total_var
    return importances


class FanovaImportance(ForestMeasurement):
    """Forest-averaged single-feature fANOVA importances."""

    name = "fanova"
    max_depth, min_samples_leaf, max_features = 10, 3, 0.7

    def __init__(self, space, seed: int | None = None, n_trees: int = 16) -> None:
        super().__init__(space, seed, n_trees)

    def _scores(self, forest, configs, scores, default_score):
        total = np.zeros(self.space.n_dims)
        for tree in forest.trees_:
            total += tree_fanova_importances(tree, self.space.n_dims)
        return total / len(forest.trees_)
