"""Gini-score knob ranking (Tuneful, paper §3.1.1).

A random forest is fitted on the unit-encoded configurations; each knob's
score is the number of times it is chosen for a split across all trees —
important knobs discriminate more samples and are used more frequently.
"""

from __future__ import annotations

from repro.selection.base import ForestMeasurement


class GiniImportance(ForestMeasurement):
    """Split-count importance from a random-forest surrogate."""

    name = "gini"
    max_depth, min_samples_leaf, max_features = 14, 2, 0.6

    def __init__(self, space, seed: int | None = None, n_trees: int = 30) -> None:
        super().__init__(space, seed, n_trees)

    def _scores(self, forest, configs, scores, default_score):
        return forest.split_counts()
