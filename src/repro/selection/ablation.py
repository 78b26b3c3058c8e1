"""Ablation-analysis knob ranking (Fawcett & Hoos, 2016; paper §3.1.2).

For each well-performing observed configuration (the *target*), walk a
greedy path from the default configuration to the target: at every step,
flip the single remaining knob whose change yields the largest predicted
improvement on a random-forest surrogate, and credit that knob with the
(non-negative) improvement.  Importance is each knob's average credited
gain across targets — a *tunability* measurement: knobs that cannot
improve on the default earn nothing.

As the paper observes, the measurement is only as good as the targets:
without high-quality better-than-default samples, its paths chase
surrogate noise (the source of its last-place Table 6 ranking and its
low Figure 4 stability).

A path is walked on unit rows: the default and the target are encoded
once, and each step's candidates are the current row with one remaining
knob's column taken from the target's row.  The codec encodes cell by
cell, so these are the rows the candidate configurations encode to.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.selection.base import ForestMeasurement
from repro.space import Configuration


class AblationImportance(ForestMeasurement):
    """Surrogate-assisted greedy ablation paths from the default."""

    name = "ablation"
    max_depth, min_samples_leaf, max_features = 18, 3, 0.6

    def __init__(
        self,
        space,
        seed: int | None = None,
        n_targets: int = 12,
        n_trees: int = 40,
    ) -> None:
        super().__init__(space, seed, n_trees)
        self.n_targets = n_targets

    def _ablation_path(
        self,
        forest: RandomForestRegressor,
        default: Configuration,
        target: Configuration,
    ) -> dict[str, float]:
        """Greedy default->target path; returns per-knob credited gains."""
        names = self.space.names
        remaining = [j for j, name in enumerate(names) if default[name] != target[name]]
        current, unit_target = self.space.encode_many([default, target])
        current_pred = float(forest.predict(current[None, :])[0])
        credits: dict[str, float] = {}
        while remaining:
            candidates = np.repeat(current[None, :], len(remaining), axis=0)
            candidates[np.arange(len(remaining)), remaining] = unit_target[remaining]
            preds = forest.predict(candidates)
            j = int(np.argmax(preds))
            gain = float(preds[j] - current_pred)
            credits[names[remaining[j]]] = max(gain, 0.0)
            current = candidates[j]
            current_pred = float(preds[j])
            remaining.pop(j)
        return credits

    def _compute(self, configs, scores, default_score) -> np.ndarray:
        if default_score is None:
            raise ValueError("ablation analysis requires the default score")
        return super()._compute(configs, scores, default_score)

    def _scores(self, forest, configs, scores, default_score) -> np.ndarray:
        default = self.space.default_configuration()
        targets = self._targets(configs, scores, default_score, self.n_targets)
        totals = dict.fromkeys(self.space.names, 0.0)
        for target in targets:
            for name, gain in self._ablation_path(forest, default, target).items():
                totals[name] += gain
        return np.fromiter(totals.values(), float) / len(targets)
